package fu

import "taco/internal/tta"

// GPR is the general-purpose register file shown as "Registers" in
// Figure 2. Every register is a Register-kind socket: readable and
// writable, with writes visible the next cycle.
type GPR struct {
	tta.PortTable
	regs []latch
}

// NewGPR returns a register file with n registers named r0..r{n-1}.
func NewGPR(name string, n int) *GPR {
	g := &GPR{regs: make([]latch, n)}
	socks := make([]tta.Port, n)
	for i := range socks {
		socks[i] = register(regName(i), &g.regs[i])
	}
	g.PortTable = tta.PortTable{Name: name, Sockets: socks, Clocking: tta.ClockOnWrite}
	return g
}

func regName(i int) string {
	const digits = "0123456789"
	if i < 10 {
		return "r" + digits[i:i+1]
	}
	return "r" + digits[i/10:i/10+1] + digits[i%10:i%10+1]
}

func (g *GPR) Clock(int64) error {
	for i := range g.regs {
		g.regs[i].clock()
	}
	return nil
}
func (g *GPR) Reset() {
	for i := range g.regs {
		g.regs[i].reset()
	}
}

// Counter performs arithmetic (increment, decrement, addition,
// subtraction) and counting from a start value toward a stop value,
// raising a result signal into the network controller when the stop
// value is reached (paper §3).
//
// Sockets:
//
//	o     (operand)  second operand for add/sub
//	stop  (operand)  stop value for counting / the "done" comparison
//	tadd  (trigger)  r = value + o
//	tsub  (trigger)  r = value - o
//	tinc  (trigger)  r = value + 1
//	tdec  (trigger)  r = value - 1
//	tld   (trigger)  r = value
//	tcnt  (trigger)  load value and count autonomously toward stop,
//	                 one step per cycle, until r == stop
//	r     (result)
//
// Signals: "done" (r == stop), "zero" (r == 0).
type Counter struct {
	tta.PortTable
	o    latch
	stop latch
	r    uint32

	tadd, tsub, tinc, tdec, tld, tcnt trigger

	counting bool
	done     bool
	zero     bool
}

// NewCounter returns a counter unit.
func NewCounter(name string) *Counter {
	c := &Counter{zero: true, done: true}
	c.PortTable = tta.PortTable{Name: name, Sockets: []tta.Port{
		operand("o", &c.o), operand("stop", &c.stop),
		trig("tadd", &c.tadd), trig("tsub", &c.tsub), trig("tinc", &c.tinc),
		trig("tdec", &c.tdec), trig("tld", &c.tld), trig("tcnt", &c.tcnt),
		result("r", &c.r),
	}, Lines: []tta.Line{flag("done", &c.done), flag("zero", &c.zero)},
		// Counting toward stop (tcnt) is the one autonomous activity.
		Clocking: tta.ClockSettled, Settled: func() bool { return !c.counting },
	}
	return c
}

func (c *Counter) Clock(int64) error {
	c.o.clock()
	c.stop.clock()
	fired := false
	if v, ok := c.tadd.take(); ok {
		c.r, fired = v+c.o.cur, true
	}
	if v, ok := c.tsub.take(); ok {
		c.r, fired = v-c.o.cur, true
	}
	if v, ok := c.tinc.take(); ok {
		c.r, fired = v+1, true
	}
	if v, ok := c.tdec.take(); ok {
		c.r, fired = v-1, true
	}
	if v, ok := c.tld.take(); ok {
		c.r, fired = v, true
	}
	if v, ok := c.tcnt.take(); ok {
		c.r, fired = v, true
		c.counting = c.r != c.stop.cur
	} else if fired {
		c.counting = false
	} else if c.counting {
		if c.r < c.stop.cur {
			c.r++
		} else if c.r > c.stop.cur {
			c.r--
		}
		if c.r == c.stop.cur {
			c.counting = false
		}
	}
	c.done = c.r == c.stop.cur
	c.zero = c.r == 0
	return nil
}
func (c *Counter) Reset() { *c = Counter{PortTable: c.PortTable, zero: true, done: true} }

// Comparator compares a triggered operand against a reference value and
// signals the outcome to the network controller (paper §3).
//
// Sockets: o (operand, reference), t (trigger, data), r (result: 1 when
// data == reference). Signals: "eq", "lt" (data < ref), "gt" (data > ref);
// comparisons are unsigned.
type Comparator struct {
	tta.PortTable
	o          latch
	t          trigger
	r          uint32
	eq, lt, gt bool
}

// NewComparator returns a comparator unit.
func NewComparator(name string) *Comparator {
	c := &Comparator{}
	c.PortTable = tta.PortTable{Name: name,
		Sockets:  []tta.Port{operand("o", &c.o), trig("t", &c.t), result("r", &c.r)},
		Lines:    []tta.Line{flag("eq", &c.eq), flag("lt", &c.lt), flag("gt", &c.gt)},
		Clocking: tta.ClockOnWrite}
	return c
}

func (c *Comparator) Clock(int64) error {
	c.o.clock()
	if v, ok := c.t.take(); ok {
		ref := c.o.cur
		c.eq, c.lt, c.gt = v == ref, v < ref, v > ref
		if c.eq {
			c.r = 1
		} else {
			c.r = 0
		}
	}
	return nil
}
func (c *Comparator) Reset() { *c = Comparator{PortTable: c.PortTable} }

// Matcher processes only the parts of its input selected by a mask and
// reports the match over a result line wired directly to the network
// controller (paper §3): match = (data & mask) == (ref & mask).
//
// Fields wider than a 32-bit bus word (IPv6 addresses, 128-bit prefixes)
// are matched chunk by chunk: trigger "t" starts a fresh match and
// "tand" folds another chunk in, ANDing with the running result.
//
// Sockets: mask (operand), ref (operand), t (trigger, data, fresh
// match), tand (trigger, data, cumulative match), r (result: 1/0).
// Signal: "match".
type Matcher struct {
	tta.PortTable
	mask  latch
	ref   latch
	t     trigger
	tand  trigger
	r     uint32
	match bool
}

// NewMatcher returns a matcher unit.
func NewMatcher(name string) *Matcher {
	m := &Matcher{}
	m.PortTable = tta.PortTable{Name: name, Sockets: []tta.Port{
		operand("mask", &m.mask), operand("ref", &m.ref),
		trig("t", &m.t), trig("tand", &m.tand),
		result("r", &m.r),
	}, Lines: []tta.Line{flag("match", &m.match)},
		// An idle Clock recomputes r from the unchanged match flag.
		Clocking: tta.ClockOnWrite,
	}
	return m
}

func (m *Matcher) Clock(int64) error {
	m.mask.clock()
	m.ref.clock()
	if v, ok := m.t.take(); ok {
		m.match = v&m.mask.cur == m.ref.cur&m.mask.cur
	}
	if v, ok := m.tand.take(); ok {
		m.match = m.match && v&m.mask.cur == m.ref.cur&m.mask.cur
	}
	if m.match {
		m.r = 1
	} else {
		m.r = 0
	}
	return nil
}
func (m *Matcher) Reset() { *m = Matcher{PortTable: m.PortTable} }

// Masker sets the bits of a register according to a given mask and a
// given value (paper §3): r = (data &^ mask) | (value & mask).
//
// Sockets: mask (operand), val (operand), t (trigger, data), r (result).
type Masker struct {
	tta.PortTable
	mask latch
	val  latch
	t    trigger
	r    uint32
}

// NewMasker returns a masker unit.
func NewMasker(name string) *Masker {
	m := &Masker{}
	m.PortTable = tta.PortTable{Name: name, Sockets: []tta.Port{
		operand("mask", &m.mask), operand("val", &m.val), trig("t", &m.t), result("r", &m.r),
	}, Clocking: tta.ClockOnWrite}
	return m
}

func (m *Masker) Clock(int64) error {
	m.mask.clock()
	m.val.clock()
	if v, ok := m.t.take(); ok {
		m.r = v&^m.mask.cur | m.val.cur&m.mask.cur
	}
	return nil
}
func (m *Masker) Reset() { *m = Masker{PortTable: m.PortTable} }

// Shifter performs logical shifts; per the paper it also serves as an
// arithmetical multiplier by two.
//
// Sockets: amt (operand, shift amount), tl (trigger: r = data << amt),
// tr (trigger: r = data >> amt), tmul2 (trigger: r = data << 1),
// r (result). Signal: "zero" (r == 0).
type Shifter struct {
	tta.PortTable
	amt           latch
	tl, tr, tmul2 trigger
	r             uint32
	zero          bool
}

// NewShifter returns a shifter unit.
func NewShifter(name string) *Shifter {
	s := &Shifter{zero: true}
	s.PortTable = tta.PortTable{Name: name, Sockets: []tta.Port{
		operand("amt", &s.amt),
		trig("tl", &s.tl), trig("tr", &s.tr), trig("tmul2", &s.tmul2),
		result("r", &s.r),
	}, Lines: []tta.Line{flag("zero", &s.zero)}, Clocking: tta.ClockOnWrite}
	return s
}

func (s *Shifter) Clock(int64) error {
	s.amt.clock()
	n := s.amt.cur & 31
	fired := false
	if v, ok := s.tl.take(); ok {
		s.r, fired = v<<n, true
	}
	if v, ok := s.tr.take(); ok {
		s.r, fired = v>>n, true
	}
	if v, ok := s.tmul2.take(); ok {
		s.r, fired = v<<1, true
	}
	if fired {
		s.zero = s.r == 0
	}
	return nil
}
func (s *Shifter) Reset() { *s = Shifter{PortTable: s.PortTable, zero: true} }

// Checksum accumulates the Internet one's-complement sum used by the
// UDP/ICMPv6 checksums that RIPng traffic requires.
//
// Sockets: tclr (trigger: clear the accumulator), tadd (trigger: fold the
// two 16-bit halves of the data word into the sum), r (result: the
// folded 16-bit one's-complement sum). Signal: "valid" (r == 0xffff —
// a verifying sum over data including its checksum field).
type Checksum struct {
	tta.PortTable
	tclr, tadd trigger
	acc        uint32
}

// NewChecksum returns a checksum unit. The result socket and the valid
// signal fold the accumulator on demand, so neither has a slot.
func NewChecksum(name string) *Checksum {
	c := &Checksum{}
	c.PortTable = tta.PortTable{Name: name,
		Sockets:  []tta.Port{trig("tclr", &c.tclr), trig("tadd", &c.tadd), computed("r", c.folded)},
		Lines:    []tta.Line{computedFlag("valid", func() bool { return c.folded() == 0xffff })},
		Clocking: tta.ClockOnWrite}
	return c
}

func (c *Checksum) folded() uint32 {
	s := c.acc
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return s
}
func (c *Checksum) Clock(int64) error {
	if _, ok := c.tclr.take(); ok {
		c.acc = 0
	}
	if v, ok := c.tadd.take(); ok {
		c.acc += v>>16 + v&0xffff
	}
	return nil
}
func (c *Checksum) Reset() { *c = Checksum{PortTable: c.PortTable} }

package fu

import "taco/internal/tta"

// port is one socket of a functional unit: its spec and the storage
// behind it. A writable socket names the (value, armed) pair of its latch
// or trigger, so a write is {*wr = v; *armed = true} whichever way it
// arrives; a readable socket names its register, or — when the value is
// derived from other state on demand — a getter, and then has no slot.
type port struct {
	tta.SocketSpec
	rd    *uint32
	get   func() uint32
	wr    *uint32
	armed *bool
}

func operand(name string, l *latch) port {
	return port{SocketSpec: tta.SocketSpec{Name: name, Kind: tta.Operand}, wr: &l.pend, armed: &l.dirty}
}

func trig(name string, t *trigger) port {
	return port{SocketSpec: tta.SocketSpec{Name: name, Kind: tta.Trigger}, wr: &t.val, armed: &t.fired}
}

func result(name string, r *uint32) port {
	return port{SocketSpec: tta.SocketSpec{Name: name, Kind: tta.Result}, rd: r}
}

func computed(name string, get func() uint32) port {
	return port{SocketSpec: tta.SocketSpec{Name: name, Kind: tta.Result}, get: get}
}

// boolWord is a flag as a result socket reads it: 1 or 0.
func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func register(name string, l *latch) port {
	return port{SocketSpec: tta.SocketSpec{Name: name, Kind: tta.Register},
		rd: &l.cur, wr: &l.pend, armed: &l.dirty}
}

// line is one 1-bit signal into the network controller: the flag behind
// it, or a getter when it is derived on demand (no slot).
type line struct {
	name string
	flag *bool
	get  func() bool
}

func flag(name string, f *bool) line { return line{name: name, flag: f} }

func computedFlag(name string, get func() bool) line { return line{name: name, get: get} }

// maxLines bounds a unit's signal lines (the comparator's eq/lt/gt is the
// most any unit has), so the lines sit inside the table instead of in a
// second allocation per unit.
const maxLines = 3

// ports is a unit's whole contract with the interconnect, declared once
// in the unit's constructor and embedded in the unit: everything tta.Unit
// and the compiled path's slot capabilities ask about sockets and signals
// is answered from it. The entries point into the embedding unit, so a
// Reset must keep the table (reset the other fields around it) and a unit
// must not be copied.
type ports struct {
	name  string
	socks []port
	lines [maxLines]line
	// specs and sigs are the name lists of socks and lines, as Sockets
	// and Signals hand them out.
	specs []tta.SocketSpec
	sigs  []string
}

// declare fills the table; socket and signal order here is the local
// numbering, and with unit order fixes every SocketID and SignalID.
func (p *ports) declare(name string, socks []port, lines ...line) {
	p.name, p.socks = name, socks
	p.specs = make([]tta.SocketSpec, len(socks))
	for i := range socks {
		p.specs[i] = socks[i].SocketSpec
	}
	if len(lines) > maxLines {
		panic("fu: " + name + ": more signal lines than the port table holds")
	}
	if copy(p.lines[:], lines) > 0 {
		p.sigs = make([]string, len(lines))
		for i := range lines {
			p.sigs[i] = lines[i].name
		}
	}
}

func (p *ports) Name() string              { return p.name }
func (p *ports) Sockets() []tta.SocketSpec { return p.specs }
func (p *ports) Signals() []string         { return p.sigs }

func (p *ports) Read(local int) uint32 {
	s := &p.socks[local]
	if s.rd != nil {
		return *s.rd
	}
	if s.get == nil {
		panic("fu: " + p.name + ": read of write-only socket " + s.Name)
	}
	return s.get()
}

func (p *ports) Write(local int, v uint32) {
	s := &p.socks[local]
	if s.wr == nil {
		panic("fu: " + p.name + ": write to result socket " + s.Name)
	}
	*s.wr, *s.armed = v, true
}

func (p *ports) Signal(local int) bool {
	l := &p.lines[local]
	if l.flag != nil {
		return *l.flag
	}
	return l.get()
}

// ReadSlot is tta.SlotReader: nil for a computed or write-only socket.
func (p *ports) ReadSlot(local int) *uint32 { return p.socks[local].rd }

// WriteSlot is tta.SlotWriter: (nil, nil) for a read-only socket.
func (p *ports) WriteSlot(local int) (*uint32, *bool) {
	s := &p.socks[local]
	return s.wr, s.armed
}

// SignalSlot is tta.SlotSignal: nil for a computed signal.
func (p *ports) SignalSlot(local int) *bool { return p.lines[local].flag }

// Package fu implements the TACO functional units of the paper's
// Figure 2 — Matcher, Comparator, Counter, Checksum, Shifter, Masker,
// general-purpose registers, the memory management unit, the routing
// table unit (with sequential, balanced-tree and CAM backends), the
// local info unit, and the input/output (pre/post) processing units —
// plus the configuration builder that assembles them into architecture
// instances for design-space exploration.
package fu

import (
	"fmt"
	"strconv"

	"taco/internal/linecard"
	"taco/internal/rtable"
	"taco/internal/tta"
)

// latch is a socket register with next-cycle visibility: a write stores
// the (pend, dirty) pair — through the unit's port table — and becomes
// readable after clock().
type latch struct {
	cur   uint32
	pend  uint32
	dirty bool
}

func (l *latch) clock() {
	if l.dirty {
		l.cur, l.dirty = l.pend, false
	}
}

func (l *latch) reset() { *l = latch{} }

// trigger records a trigger-socket write — a store to the (val, fired)
// pair — for consumption by Clock.
type trigger struct {
	val   uint32
	fired bool
}

// take consumes the trigger, returning whether it fired this cycle.
func (t *trigger) take() (uint32, bool) {
	v, f := t.val, t.fired
	t.fired = false
	return v, f
}

func (t *trigger) reset() { *t = trigger{} }

// Config describes one TACO architecture instance: the interconnection
// network width and the number of functional units of each type. This is
// the axis of the paper's design-space exploration ("architecture
// instances are constructed by varying the number of modules of the same
// type ... as well as varying the internal data transport capacity").
type Config struct {
	Name  string
	Buses int

	Counters    int
	Comparators int
	Matchers    int
	Maskers     int
	Shifters    int
	Checksums   int

	// GPRs is the number of general-purpose registers in the register
	// file unit.
	GPRs int

	// MemWords sizes the data memory (32-bit words).
	MemWords int

	// Table selects the routing-table unit backend for router machines.
	Table rtable.Kind

	// CAMWaitCycles is the routing-table search latency, in processor
	// cycles, charged by the CAM backend. The paper's CAM+SRAM combine
	// for a 40 ns search; at the CAM rows' resulting clock rates
	// (≤ 125 MHz) five cycles always cover 40 ns.
	CAMWaitCycles int
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.Buses < 1 {
		return fmt.Errorf("fu: config %q: need ≥1 bus", c.Name)
	}
	for _, k := range UnitKinds {
		if k.Count(c) < 1 {
			return fmt.Errorf("fu: config %q: need ≥1 %ss", c.Name, k.Name)
		}
	}
	if c.GPRs < 1 {
		return fmt.Errorf("fu: config %q: need ≥1 gprs", c.Name)
	}
	if c.MemWords < 64 {
		return fmt.Errorf("fu: config %q: memory too small (%d words)", c.Name, c.MemWords)
	}
	if c.CAMWaitCycles < 1 {
		return fmt.Errorf("fu: config %q: need ≥1 CAM wait cycle", c.Name)
	}
	return nil
}

// UnitKind is one functional-unit type a Config replicates: the paper
// builds architecture instances "by varying the number of modules of the
// same type".
type UnitKind struct {
	// Stem prefixes each instance's name: cnt0, cnt1, ...
	Stem string
	// Name is the type: "counter" is also the estimate's module key,
	// and "counters" (Name plus "s") is the word Validate uses for the
	// count.
	Name string
	// New builds one instance named name.
	New func(name string) tta.Unit
	// Count is how many instances cfg asks for.
	Count func(cfg Config) int
}

// UnitKinds lists every replicable unit type in machine unit order. It
// is the one declaration the machine builder, Validate and the socket
// estimate (internal/estimate) read.
var UnitKinds = []UnitKind{
	{"cnt", "counter", func(n string) tta.Unit { return NewCounter(n) }, func(c Config) int { return c.Counters }},
	{"cmp", "comparator", func(n string) tta.Unit { return NewComparator(n) }, func(c Config) int { return c.Comparators }},
	{"mat", "matcher", func(n string) tta.Unit { return NewMatcher(n) }, func(c Config) int { return c.Matchers }},
	{"msk", "masker", func(n string) tta.Unit { return NewMasker(n) }, func(c Config) int { return c.Maskers }},
	{"shf", "shifter", func(n string) tta.Unit { return NewShifter(n) }, func(c Config) int { return c.Shifters }},
	{"chk", "checksum", func(n string) tta.Unit { return NewChecksum(n) }, func(c Config) int { return c.Checksums }},
}

// baseConfig fills the fields shared by the paper's configurations.
func baseConfig(name string, buses, replicated int, kind rtable.Kind) Config {
	return Config{
		Name:  name,
		Buses: buses,
		// The paper's optimized configuration triples counters,
		// comparators and matchers; the remaining unit types stay single.
		Counters:      replicated,
		Comparators:   replicated,
		Matchers:      replicated,
		Maskers:       1,
		Shifters:      1,
		Checksums:     1,
		GPRs:          16,
		MemWords:      1 << 16,
		Table:         kind,
		CAMWaitCycles: 5,
	}
}

// Config1Bus1FU is the paper's "1BUS/1FU" instance.
func Config1Bus1FU(kind rtable.Kind) Config {
	return baseConfig("1BUS/1FU", 1, 1, kind)
}

// Config3Bus1FU is the paper's "3BUS/1FU" instance.
func Config3Bus1FU(kind rtable.Kind) Config {
	return baseConfig("3BUS/1FU", 3, 1, kind)
}

// Config3Bus3FU is the paper's "3bus/3CNT,3CMP,3M" instance.
func Config3Bus3FU(kind rtable.Kind) Config {
	return baseConfig("3BUS/3CNT,3CMP,3M", 3, 3, kind)
}

// PaperConfigs returns the three architecture instances of Table 1 for a
// routing-table implementation, in the paper's order.
func PaperConfigs(kind rtable.Kind) []Config {
	return []Config{Config1Bus1FU(kind), Config3Bus1FU(kind), Config3Bus3FU(kind)}
}

// RouterUnits collects direct references to the stateful units of a
// router machine, for workload injection and inspection by the harness.
type RouterUnits struct {
	MMU  *MMU
	IPPU *IPPU
	OPPU *OPPU
	LIU  *LIU
	// RTU is the routing-table unit; its concrete type depends on the
	// configured backend.
	RTU RTU
}

// RTUKinds declares each routing-table unit backend once, keyed by the
// table kind it serves: the entry builds the unit unbound, and
// NewRouterMachine binds it to the machine's table. Its keys are the
// paper's kinds (rtable.Backend.Paper), the ones with a forwarding
// kernel.
var RTUKinds = map[rtable.Kind]func(name string, cfg Config) RTU{
	rtable.Sequential:   func(n string, _ Config) RTU { return NewRTUSeq(n) },
	rtable.BalancedTree: func(n string, _ Config) RTU { return NewRTUTree(n) },
	rtable.CAM:          func(n string, c Config) RTU { return NewRTUCAM(n, c.CAMWaitCycles) },
}

// NewComputeMachine builds a machine with only the computational units
// (no router I/O, no routing table) — sufficient for the Figure 3
// example and the assembler/scheduler tests.
func NewComputeMachine(cfg Config) (*tta.Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	units := computeUnits(cfg)
	units = append(units, NewMMU("mmu", cfg.MemWords))
	return tta.New(cfg.Name, cfg.Buses, units)
}

// NewRouterMachine builds a full router processor: the computational
// units plus MMU, routing-table unit over tbl, local-info unit, and the
// pre/post processing units connected to bank.
func NewRouterMachine(cfg Config, tbl rtable.Table, bank *linecard.Bank) (*tta.Machine, *RouterUnits, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	newRTU, ok := RTUKinds[cfg.Table]
	if !ok {
		return nil, nil, fmt.Errorf("fu: no RTU backend for %v tables", cfg.Table)
	}
	rtu := newRTU("rtu", cfg)
	if err := rtu.Bind(tbl); err != nil {
		return nil, nil, err
	}
	mmu := NewMMU("mmu", cfg.MemWords)
	ippu := NewIPPU("ippu", bank, mmu)
	oppu := NewOPPU("oppu", bank, mmu)
	oppu.SeqLookup = ippu.SeqAt
	oppu.StoredCycleLookup = ippu.StoredCycleAt
	liu := NewLIU("liu")

	units := computeUnits(cfg)
	units = append(units, mmu, rtu, liu, ippu, oppu)
	m, err := tta.New(cfg.Name, cfg.Buses, units)
	if err != nil {
		return nil, nil, err
	}
	return m, &RouterUnits{MMU: mmu, IPPU: ippu, OPPU: oppu, LIU: liu, RTU: rtu}, nil
}

func computeUnits(cfg Config) []tta.Unit {
	var units []tta.Unit
	for _, k := range UnitKinds {
		for i := 0; i < k.Count(cfg); i++ {
			units = append(units, k.New(k.Stem+strconv.Itoa(i)))
		}
	}
	units = append(units, NewGPR("gpr", cfg.GPRs))
	return units
}

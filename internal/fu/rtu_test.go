package fu

import (
	"testing"

	"taco/internal/bits"
	"taco/internal/isa"
	"taco/internal/linecard"
	"taco/internal/rtable"
	"taco/internal/tta"
)

func seqTableWith(t *testing.T, routes ...rtable.Route) *rtable.SequentialTable {
	t.Helper()
	tbl := rtable.NewSequential()
	for _, r := range routes {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func routerMachine(t *testing.T, cfg Config, tbl rtable.Table) (*tta.Machine, *RouterUnits, *linecard.Bank) {
	t.Helper()
	bank := linecard.NewBank(4)
	m, units, err := NewRouterMachine(cfg, tbl, bank)
	if err != nil {
		t.Fatal(err)
	}
	return m, units, bank
}

func TestRTUSeqEntryLoad(t *testing.T) {
	p48 := bits.MakePrefix(bits.FromWords(0x20010db8, 0x11110000, 0, 0), 48)
	tbl := seqTableWith(t, rtable.Route{Prefix: p48, Iface: 3, Metric: 1})
	m, _, _ := routerMachine(t, Config3Bus1FU(rtable.Sequential), tbl)

	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvI(m, 0, "rtu.tidx")),
		ins(mvS(m, "rtu.p0", "gpr.r0"), mvS(m, "rtu.m1", "gpr.r1"), mvS(m, "rtu.ifc", "gpr.r2")),
		ins(mvS(m, "rtu.m2", "gpr.r3"), mvS(m, "rtu.count", "gpr.r4")),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "gpr.r0", 0x20010db8)
	expect(t, m, "gpr.r1", 0xffff0000) // /48 mask word 1
	expect(t, m, "gpr.r2", 3)
	expect(t, m, "gpr.r3", 0) // /48 mask word 2
	expect(t, m, "gpr.r4", 1)
	if v, _ := m.SignalValue("rtu.valid"); !v {
		t.Error("valid low after in-range load")
	}
}

func TestRTUSeqOutOfRange(t *testing.T) {
	tbl := seqTableWith(t)
	m, _, _ := routerMachine(t, Config1Bus1FU(rtable.Sequential), tbl)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{ins(mvI(m, 0, "rtu.tidx")), {}}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.SignalValue("rtu.valid"); v {
		t.Error("valid high after out-of-range load")
	}
}

func TestRTUTreeWalkRegisters(t *testing.T) {
	tbl := rtable.NewBalancedTree()
	p32 := bits.MakePrefix(bits.FromWords(0x20010db8, 0, 0, 0), 32)
	if err := tbl.Insert(rtable.Route{Prefix: p32, Iface: 2, Metric: 1}); err != nil {
		t.Fatal(err)
	}
	m, _, _ := routerMachine(t, Config3Bus1FU(rtable.BalancedTree), tbl)

	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvS(m, "rtu.root", "gpr.r0")),
		ins(mvI(m, 0, "rtu.tnode")), // root is node 0 for a 1-node tree
		ins(mvS(m, "rtu.f0", "gpr.r1"), mvS(m, "rtu.l0", "gpr.r2"), mvS(m, "rtu.ifc", "gpr.r3")),
		ins(mvS(m, "rtu.left", "gpr.r4"), mvS(m, "rtu.right", "gpr.r5")),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "gpr.r0", 0)
	expect(t, m, "gpr.r1", 0x20010db8)
	expect(t, m, "gpr.r2", 0x20010db8) // /32: first and last share word 0
	expect(t, m, "gpr.r3", 2)
	expect(t, m, "gpr.r4", NilNode)
	expect(t, m, "gpr.r5", NilNode)
}

func TestRTUTreeNilLoad(t *testing.T) {
	tbl := rtable.NewBalancedTree()
	m, _, _ := routerMachine(t, Config1Bus1FU(rtable.BalancedTree), tbl)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvS(m, "rtu.root", "gpr.r0")),
		ins(mvI(m, NilNode, "rtu.tnode")),
		{},
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "gpr.r0", NilNode) // empty tree: no root
	if v, _ := m.SignalValue("rtu.valid"); v {
		t.Error("valid high after nil load")
	}
}

func TestRTUCAMSearch(t *testing.T) {
	tbl := rtable.NewCAM(rtable.DefaultCAMConfig())
	p32 := bits.MakePrefix(bits.FromWords(0x20010db8, 0, 0, 0), 32)
	if err := tbl.Insert(rtable.Route{Prefix: p32, Iface: 2, Metric: 1}); err != nil {
		t.Fatal(err)
	}
	cfg := Config3Bus1FU(rtable.CAM)
	m, units, _ := routerMachine(t, cfg, tbl)
	cam := units.RTU.(*RTUCAM)

	ready := isa.Guard{Terms: []isa.GuardTerm{{Signal: m.MustSignal("rtu.ready")}}}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvI(m, 0x20010db8, "rtu.a0"), mvI(m, 0x00000005, "rtu.a1"), mvI(m, 0, "rtu.a2")),
		ins(mvI(m, 0, "rtu.tlook")),
		// Spin until ready.
		ins(isa.Move{Guard: ready, Src: isa.ImmSrc(4), Dst: m.MustSocket("nc.jmp")}),
		ins(mvI(m, 2, "nc.jmp")),
		ins(mvS(m, "rtu.ifc", "gpr.r0"), mvS(m, "rtu.hit", "gpr.r1")),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "gpr.r0", 2)
	expect(t, m, "gpr.r1", 1)
	if cam.Searches() != 1 {
		t.Errorf("searches = %d", cam.Searches())
	}
	// The busy window must cover the configured latency.
	if cy := m.Stats().Cycles; cy < int64(cfg.CAMWaitCycles) {
		t.Errorf("completed in %d cycles < CAM latency %d", cy, cfg.CAMWaitCycles)
	}
}

func TestRTUCAMMiss(t *testing.T) {
	tbl := rtable.NewCAM(rtable.DefaultCAMConfig())
	m, _, _ := routerMachine(t, Config3Bus1FU(rtable.CAM), tbl)
	ready := isa.Guard{Terms: []isa.GuardTerm{{Signal: m.MustSignal("rtu.ready")}}}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvI(m, 1, "rtu.a0"), mvI(m, 2, "rtu.a1"), mvI(m, 3, "rtu.a2")),
		ins(mvI(m, 4, "rtu.tlook")),
		ins(isa.Move{Guard: ready, Src: isa.ImmSrc(4), Dst: m.MustSocket("nc.jmp")}),
		ins(mvI(m, 2, "nc.jmp")),
		ins(mvS(m, "rtu.hit", "gpr.r0")),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "gpr.r0", 0)
	if v, _ := m.SignalValue("rtu.hit"); v {
		t.Error("hit signal high after miss")
	}
}

func TestRTUCAMRetriggerFault(t *testing.T) {
	tbl := rtable.NewCAM(rtable.DefaultCAMConfig())
	m, _, _ := routerMachine(t, Config1Bus1FU(rtable.CAM), tbl)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvI(m, 0, "rtu.tlook")),
		ins(mvI(m, 0, "rtu.tlook")), // still busy (wait = 5)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err == nil {
		t.Error("retrigger during search accepted")
	}
}

func TestNewRouterMachineKindMismatch(t *testing.T) {
	bank := linecard.NewBank(1)
	if _, _, err := NewRouterMachine(Config1Bus1FU(rtable.CAM), rtable.NewSequential(), bank); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestNewRouterMachineTrieUnsupported(t *testing.T) {
	bank := linecard.NewBank(1)
	cfg := Config1Bus1FU(rtable.Trie)
	if _, _, err := NewRouterMachine(cfg, rtable.NewTrie(), bank); err == nil {
		t.Error("trie RTU should be unsupported (no hardware unit in the paper)")
	}
}

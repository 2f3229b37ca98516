package fu

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"taco/internal/isa"
	"taco/internal/tta"
)

// run builds a compute machine on the default 3-bus config, assembles
// the given instruction builder's program, runs it to completion and
// returns the machine for inspection.
func run(t *testing.T, buses int, build func(m *tta.Machine) *isa.Program) *tta.Machine {
	t.Helper()
	cfg := Config3Bus1FU(0)
	cfg.Buses = buses
	m, err := NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := build(m)
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	return m
}

func mvS(m *tta.Machine, src, dst string) isa.Move {
	return isa.Move{Src: isa.SocketSrc(m.MustSocket(src)), Dst: m.MustSocket(dst)}
}

func mvI(m *tta.Machine, v uint32, dst string) isa.Move {
	return isa.Move{Src: isa.ImmSrc(v), Dst: m.MustSocket(dst)}
}

func ins(moves ...isa.Move) isa.Instruction { return isa.Instruction{Moves: moves} }

func expect(t *testing.T, m *tta.Machine, socket string, want uint32) {
	t.Helper()
	got, err := m.ReadSocket(socket)
	if err != nil {
		t.Fatalf("read %s: %v", socket, err)
	}
	if got != want {
		t.Errorf("%s = %d, want %d", socket, got, want)
	}
}

func TestCounterArithmetic(t *testing.T) {
	m := run(t, 3, func(m *tta.Machine) *isa.Program {
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			ins(mvI(m, 10, "cnt0.o"), mvI(m, 32, "cnt0.tadd")), // 42
			ins(mvS(m, "cnt0.r", "gpr.r0")),
			ins(mvI(m, 2, "cnt0.o"), mvI(m, 50, "cnt0.tsub")), // 48
			ins(mvS(m, "cnt0.r", "gpr.r1")),
			ins(mvI(m, 7, "cnt0.tinc")), // 8
			ins(mvS(m, "cnt0.r", "gpr.r2")),
			ins(mvI(m, 7, "cnt0.tdec")), // 6
			ins(mvS(m, "cnt0.r", "gpr.r3")),
			ins(mvI(m, 99, "cnt0.tld")), // 99
			ins(mvS(m, "cnt0.r", "gpr.r4")),
		}
		return p
	})
	expect(t, m, "gpr.r0", 42)
	expect(t, m, "gpr.r1", 48)
	expect(t, m, "gpr.r2", 8)
	expect(t, m, "gpr.r3", 6)
	expect(t, m, "gpr.r4", 99)
}

func TestCounterWraparound(t *testing.T) {
	m := run(t, 3, func(m *tta.Machine) *isa.Program {
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			ins(mvI(m, 0, "cnt0.tdec")), // 0-1 wraps
			ins(mvS(m, "cnt0.r", "gpr.r0")),
		}
		return p
	})
	expect(t, m, "gpr.r0", 0xffffffff)
}

func TestCounterAutoCount(t *testing.T) {
	// tcnt from 3 toward stop 7: after the trigger cycle the counter
	// advances once per cycle, signalling done when it arrives.
	cfg := Config1Bus1FU(0)
	m, err := NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	done := isa.Guard{Terms: []isa.GuardTerm{{Signal: m.MustSignal("cnt0.done")}}}
	p.Ins = []isa.Instruction{
		ins(mvI(m, 7, "cnt0.stop")),
		ins(mvI(m, 3, "cnt0.tcnt")),
		// Spin until done: 3→4→5→6→7 takes 4 further cycles.
		ins(isa.Move{Guard: done, Src: isa.ImmSrc(5), Dst: m.MustSocket("nc.jmp")}),
		ins(mvI(m, 2, "nc.jmp")),
		{},
		ins(mvS(m, "cnt0.r", "gpr.r0")), // 5
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "gpr.r0", 7)
}

func TestComparatorSignals(t *testing.T) {
	cfg := Config3Bus1FU(0)
	m, err := NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvI(m, 10, "cmp0.o"), mvI(m, 10, "cmp0.t")),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	for sig, want := range map[string]bool{"cmp0.eq": true, "cmp0.lt": false, "cmp0.gt": false} {
		if got, _ := m.SignalValue(sig); got != want {
			t.Errorf("%s = %v after 10 vs 10", sig, got)
		}
	}
	expect(t, m, "cmp0.r", 1)

	m.Reset()
	p.Ins = []isa.Instruction{ins(mvI(m, 10, "cmp0.o"), mvI(m, 3, "cmp0.t"))}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	for sig, want := range map[string]bool{"cmp0.eq": false, "cmp0.lt": true, "cmp0.gt": false} {
		if got, _ := m.SignalValue(sig); got != want {
			t.Errorf("%s = %v after 3 vs 10", sig, got)
		}
	}
	expect(t, m, "cmp0.r", 0)
}

func TestMatcherMaskedCompare(t *testing.T) {
	cfg := Config3Bus1FU(0)
	m, err := NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		// Match only the top byte: 0xAB?????? vs 0xABCD0000.
		ins(mvI(m, 0xff000000, "mat0.mask"), mvI(m, 0xabcd0000, "mat0.ref"), mvI(m, 0xab123456, "mat0.t")),
		ins(mvS(m, "mat0.r", "gpr.r0")),
		// Same data, full mask: no match.
		ins(mvI(m, 0xffffffff, "mat0.mask"), mvI(m, 0xab123456, "mat0.t")),
		ins(mvS(m, "mat0.r", "gpr.r1")),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "gpr.r0", 1)
	expect(t, m, "gpr.r1", 0)
	if got, _ := m.SignalValue("mat0.match"); got {
		t.Error("match signal stuck high")
	}
}

func TestMaskerSetsBits(t *testing.T) {
	m := run(t, 3, func(m *tta.Machine) *isa.Program {
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			// Replace the low byte of 0x11223344 with 0xff.
			ins(mvI(m, 0x000000ff, "msk0.mask"), mvI(m, 0x000000ff, "msk0.val"), mvI(m, 0x11223344, "msk0.t")),
			ins(mvS(m, "msk0.r", "gpr.r0")),
		}
		return p
	})
	expect(t, m, "gpr.r0", 0x112233ff)
}

func TestShifterOps(t *testing.T) {
	m := run(t, 3, func(m *tta.Machine) *isa.Program {
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			ins(mvI(m, 4, "shf0.amt"), mvI(m, 3, "shf0.tl")), // 48
			ins(mvS(m, "shf0.r", "gpr.r0")),
			ins(mvI(m, 2, "shf0.amt"), mvI(m, 100, "shf0.tr")), // 25
			ins(mvS(m, "shf0.r", "gpr.r1")),
			ins(mvI(m, 21, "shf0.tmul2")), // 42
			ins(mvS(m, "shf0.r", "gpr.r2")),
		}
		return p
	})
	expect(t, m, "gpr.r0", 48)
	expect(t, m, "gpr.r1", 25)
	expect(t, m, "gpr.r2", 42)
}

func TestChecksumFolding(t *testing.T) {
	cfg := Config3Bus1FU(0)
	m, err := NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvI(m, 0, "chk0.tclr")),
		ins(mvI(m, 0xffff0001, "chk0.tadd")), // sum = 0xffff + 1 = 0x10000 → 1
		ins(mvS(m, "chk0.r", "gpr.r0")),
		ins(mvI(m, 0x0000fffe, "chk0.tadd")), // 1 + 0xfffe = 0xffff
		ins(mvS(m, "chk0.r", "gpr.r1")),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "gpr.r0", 1)
	expect(t, m, "gpr.r1", 0xffff)
	if got, _ := m.SignalValue("chk0.valid"); !got {
		t.Error("valid signal low at sum 0xffff")
	}
}

func TestGPRNaming(t *testing.T) {
	g := NewGPR("gpr", 12)
	specs := g.Sockets
	if specs[0].Name != "r0" || specs[9].Name != "r9" || specs[10].Name != "r10" || specs[11].Name != "r11" {
		t.Errorf("register names: %v", specs)
	}
}

// A register written through its socket's raw (value, armed) pair, as
// the compiled step path writes it, reads its old value until Clock, and
// Clock commits the written registers and no other.
func TestGPRClockCommitsWrittenOnly(t *testing.T) {
	g := NewGPR("gpr", 12)
	read := func() (out []uint32) {
		for _, p := range g.Sockets {
			out = append(out, *p.Reg)
		}
		return out
	}
	write := func(i int, v uint32) { *g.Sockets[i].Val, *g.Sockets[i].Armed = v, true }
	for i := range g.Sockets {
		write(i, uint32(100+i))
	}
	if err := g.Clock(0); err != nil {
		t.Fatal(err)
	}
	write(0, 1)
	write(7, 2)
	write(8, 3)
	write(11, 4)
	*g.Sockets[5].Val = 99 // a value with no write behind it
	want := []uint32{100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111}
	if got := read(); !reflect.DeepEqual(got, want) {
		t.Fatalf("before Clock: %v, want %v", got, want)
	}
	if err := g.Clock(1); err != nil {
		t.Fatal(err)
	}
	want[0], want[7], want[8], want[11] = 1, 2, 3, 4
	if got := read(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Clock: %v, want %v", got, want)
	}
	for i, p := range g.Sockets {
		if *p.Armed {
			t.Errorf("r%d still armed after Clock", i)
		}
	}
	write(3, 7)
	g.Reset()
	if got := read(); !reflect.DeepEqual(got, make([]uint32, 12)) || *g.Sockets[3].Armed {
		t.Errorf("after Reset: %v, r3 armed %v", got, *g.Sockets[3].Armed)
	}
}

func TestMMUReadWrite(t *testing.T) {
	m := run(t, 3, func(m *tta.Machine) *isa.Program {
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			ins(mvI(m, 0xdeadbeef, "mmu.ow"), mvI(m, 100, "mmu.tw")),
			ins(mvI(m, 100, "mmu.tr")),
			ins(mvS(m, "mmu.r", "gpr.r0")),
		}
		return p
	})
	expect(t, m, "gpr.r0", 0xdeadbeef)
}

func TestMMUSinglePorted(t *testing.T) {
	cfg := Config3Bus1FU(0)
	m, err := NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvI(m, 1, "mmu.tr"), mvI(m, 2, "mmu.tw")),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err == nil {
		t.Error("simultaneous read and write accepted")
	}
}

func TestMMUBoundsFault(t *testing.T) {
	cfg := Config1Bus1FU(0)
	cfg.MemWords = 64
	m, err := NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{ins(mvI(m, 64, "mmu.tr"))}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err == nil {
		t.Error("out-of-range read accepted")
	}
}

func TestMMUStoreLoadBytes(t *testing.T) {
	mmu := NewMMU("mmu", 1024)
	data := []byte{1, 2, 3, 4, 5, 6, 7} // 7 bytes: pad final word
	n, err := mmu.StoreBytes(10, data)
	if err != nil || n != 2 {
		t.Fatalf("StoreBytes = %d, %v", n, err)
	}
	if mmu.Peek(10) != 0x01020304 || mmu.Peek(11) != 0x05060700 {
		t.Errorf("words = %08x %08x", mmu.Peek(10), mmu.Peek(11))
	}
	got, err := mmu.LoadBytes(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("LoadBytes = %v", got)
		}
	}
	if _, err := mmu.StoreBytes(1023, data); err == nil {
		t.Error("overflow store accepted")
	}
	if _, err := mmu.LoadBytes(1023, 8); err == nil {
		t.Error("overflow load accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config3Bus3FU(0)
	if err := good.Validate(); err != nil {
		t.Errorf("paper config invalid: %v", err)
	}
	bad := good
	bad.Buses = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 buses accepted")
	}
	bad = good
	bad.Matchers = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 matchers accepted")
	}
	bad = good
	bad.MemWords = 1
	if err := bad.Validate(); err == nil {
		t.Error("tiny memory accepted")
	}
	bad = good
	bad.CAMWaitCycles = 0
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "need ≥1 CAM wait cycle") {
		t.Errorf("0 CAM wait cycles: err = %v", err)
	}
}

// Each UnitKinds entry reads its own Config field (Name+"s",
// capitalised), and the machine holds Count instances of it named
// Stem0, Stem1, ... in table order, then the register file and the MMU.
// Zeroing the field fails Validate with the entry's word.
func TestUnitKindsBuildTheMachine(t *testing.T) {
	cfg := Config1Bus1FU(0)
	field := func(c *Config, k UnitKind) reflect.Value {
		return reflect.ValueOf(c).Elem().FieldByName(strings.ToUpper(k.Name[:1]) + k.Name[1:] + "s")
	}
	count := func(i int) int { return i%3 + 1 }
	for i, k := range UnitKinds {
		f := field(&cfg, k)
		if !f.IsValid() {
			t.Fatalf("%s: no Config field for %ss", k.Stem, k.Name)
		}
		f.SetInt(int64(count(i)))
	}
	var want []string
	for i, k := range UnitKinds {
		if got := k.Count(cfg); got != count(i) {
			t.Errorf("%s: Count reads %d, want %d", k.Name, got, count(i))
		}
		for n := 0; n < count(i); n++ {
			want = append(want, fmt.Sprintf("%s%d", k.Stem, n))
		}
		bad := cfg
		field(&bad, k).SetInt(0)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "need ≥1 "+k.Name+"s") {
			t.Errorf("0 %ss: Validate says %v", k.Name, err)
		}
	}
	m, err := NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(m.UnitNames(), " "), strings.Join(append(want, "gpr", "mmu"), " "); got != want {
		t.Errorf("unit order %q, want %q", got, want)
	}
}

func TestPaperConfigs(t *testing.T) {
	cfgs := PaperConfigs(0)
	if len(cfgs) != 3 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	if cfgs[0].Buses != 1 || cfgs[1].Buses != 3 || cfgs[2].Buses != 3 {
		t.Error("bus counts wrong")
	}
	if cfgs[2].Matchers != 3 || cfgs[2].Counters != 3 || cfgs[2].Comparators != 3 {
		t.Error("3FU config does not triple CNT/CMP/M")
	}
	if cfgs[2].Maskers != 1 || cfgs[2].Shifters != 1 {
		t.Error("3FU config should not replicate maskers/shifters")
	}
}

func TestCounterAutoCountDownward(t *testing.T) {
	// tcnt with start above stop counts down one step per cycle.
	cfg := Config1Bus1FU(0)
	m, err := NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	done := isa.Guard{Terms: []isa.GuardTerm{{Signal: m.MustSignal("cnt0.done")}}}
	p.Ins = []isa.Instruction{
		ins(mvI(m, 3, "cnt0.stop")),
		ins(mvI(m, 9, "cnt0.tcnt")),
		ins(isa.Move{Guard: done, Src: isa.ImmSrc(5), Dst: m.MustSocket("nc.jmp")}),
		ins(mvI(m, 2, "nc.jmp")),
		{},
		ins(mvS(m, "cnt0.r", "gpr.r0")),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "gpr.r0", 3)
}

func TestThreeTermGuardAtMachineLevel(t *testing.T) {
	// A conjunction of three signals from three units gates one move.
	cfg := Config3Bus3FU(0)
	m, err := NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := isa.Guard{Terms: []isa.GuardTerm{
		{Signal: m.MustSignal("mat0.match")},
		{Signal: m.MustSignal("mat1.match")},
		{Signal: m.MustSignal("mat2.match")},
	}}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvI(m, 0, "mat0.mask"), mvI(m, 0, "mat1.mask"), mvI(m, 1, "mat2.mask")),
		// mat0/mat1 match trivially (mask 0); mat2 requires bit 0 == ref.
		ins(mvI(m, 0, "mat0.t"), mvI(m, 0, "mat1.t"), mvI(m, 0, "mat2.ref")),
		ins(mvI(m, 1, "mat2.t")), // 1&1 != 0&1: no match
		ins(isa.Move{Guard: g, Src: isa.ImmSrc(7), Dst: m.MustSocket("gpr.r0")}),
		ins(mvI(m, 0, "mat2.t")), // 0&1 == 0&1: match
		ins(isa.Move{Guard: g, Src: isa.ImmSrc(9), Dst: m.MustSocket("gpr.r1")}),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "gpr.r0", 0) // one term false: not executed
	expect(t, m, "gpr.r1", 9) // all three true: executed
}

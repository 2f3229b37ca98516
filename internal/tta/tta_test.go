package tta

import (
	"reflect"
	"strings"
	"testing"

	"taco/internal/isa"
	"taco/internal/obs"
)

// adder is a minimal test FU: trigger "t" computes r = o + t, trigger
// "tsub" computes r = o - tsub; "nz" signals r != 0. Like all TACO units
// it completes in one cycle: trigger in cycle t, result visible at t+1.
type adder struct {
	PortTable
	o, r         uint32
	pendO        uint32
	pendT, pendS uint32
	hasO         bool
	hasT, hasS   bool
	nz           bool
}

func newAdder(name string) *adder {
	a := &adder{}
	a.PortTable = PortTable{Name: name, Sockets: []Port{
		{SocketSpec: SocketSpec{"o", Operand}, Val: &a.pendO, Armed: &a.hasO},
		{SocketSpec: SocketSpec{"t", Trigger}, Val: &a.pendT, Armed: &a.hasT},
		{SocketSpec: SocketSpec{"tsub", Trigger}, Val: &a.pendS, Armed: &a.hasS},
		{SocketSpec: SocketSpec{"r", Result}, Reg: &a.r},
	}, Lines: []Line{{Name: "nz", Flag: &a.nz}}}
	return a
}

func (a *adder) Clock(int64) error {
	if a.hasO {
		a.o, a.hasO = a.pendO, false
	}
	if a.hasT {
		a.r = a.o + a.pendT
		a.nz = a.r != 0
		a.hasT = false
	}
	if a.hasS {
		a.r = a.o - a.pendS
		a.nz = a.r != 0
		a.hasS = false
	}
	return nil
}
func (a *adder) Reset() { *a = adder{PortTable: a.PortTable} }

// regs is a 4-register file.
type regs struct {
	PortTable
	r    [4]uint32
	pend [4]uint32
	has  [4]bool
}

func newRegs(name string) *regs {
	g := &regs{}
	g.PortTable = PortTable{Name: name, Sockets: make([]Port, len(g.r))}
	for i := range g.r {
		g.Sockets[i] = Port{SocketSpec: SocketSpec{"r" + string(rune('0'+i)), Register},
			Reg: &g.r[i], Val: &g.pend[i], Armed: &g.has[i]}
	}
	return g
}

func (g *regs) Clock(int64) error {
	for i := range g.r {
		if g.has[i] {
			g.r[i], g.has[i] = g.pend[i], false
		}
	}
	return nil
}
func (g *regs) Reset() { *g = regs{PortTable: g.PortTable} }

func newTestMachine(t *testing.T, buses int) *Machine {
	t.Helper()
	m, err := New("test", buses, []Unit{newAdder("add0"), newRegs("gpr")})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mv(m *Machine, src, dst string) isa.Move {
	return isa.Move{Src: isa.SocketSrc(m.MustSocket(src)), Dst: m.MustSocket(dst)}
}

func imm(m *Machine, v uint32, dst string) isa.Move {
	return isa.Move{Src: isa.ImmSrc(v), Dst: m.MustSocket(dst)}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New("x", 0, nil); err == nil {
		t.Error("zero buses accepted")
	}
	if _, err := New("x", 1, []Unit{newAdder("a"), newAdder("a")}); err == nil {
		t.Error("duplicate unit names accepted")
	}
	if _, err := New("x", 1, []Unit{newAdder("nc")}); err == nil {
		t.Error("reserved unit name accepted")
	}
	// Port tables that name the wrong storage: each is rejected with an
	// error naming the unit and the socket or line.
	getWord := func() uint32 { return 0 }
	getFlag := func() bool { return false }
	for _, c := range []struct {
		what  string
		edit  func(*adder)
		names string
	}{
		{"writable socket without a latch", func(a *adder) { a.Sockets[0].Val = nil }, "bad.o"},
		{"writable socket without an armed flag", func(a *adder) { a.Sockets[1].Armed = nil }, "bad.t"},
		{"readable socket with neither slot nor getter", func(a *adder) { a.Sockets[3].Reg = nil }, "bad.r"},
		{"readable socket with slot and getter", func(a *adder) { a.Sockets[3].Get = getWord }, "bad.r"},
		{"line with neither flag nor getter", func(a *adder) { a.Lines[0].Flag = nil }, "bad.nz"},
		{"line with flag and getter", func(a *adder) { a.Lines[0].Get = getFlag }, "bad.nz"},
		{"settled promise without its hook", func(a *adder) { a.Clocking = ClockSettled }, "bad"},
		{"settled hook without its promise", func(a *adder) { a.Settled = func() bool { return true } }, "bad"},
	} {
		a := newAdder("bad")
		c.edit(a)
		_, err := New("x", 1, []Unit{a})
		if err == nil {
			t.Errorf("%s accepted", c.what)
			continue
		}
		unit, socket, _ := strings.Cut(c.names, ".")
		if !strings.Contains(err.Error(), "unit "+unit) || !strings.Contains(err.Error(), " "+socket+" ") && socket != "" {
			t.Errorf("%s: error %q does not name unit %s and %s", c.what, err, unit, socket)
		}
	}
}

func TestSocketResolution(t *testing.T) {
	m := newTestMachine(t, 1)
	for _, name := range []string{"nc.jmp", "nc.halt", "add0.o", "add0.t", "add0.r", "gpr.r3"} {
		id, err := m.Socket(name)
		if err != nil {
			t.Errorf("Socket(%q): %v", name, err)
			continue
		}
		if got := m.SocketName(id); got != name {
			t.Errorf("SocketName(%d) = %q, want %q", id, got, name)
		}
	}
	if _, err := m.Socket("nope.x"); err == nil {
		t.Error("unknown socket resolved")
	}
	if _, err := m.Signal("add0.nz"); err != nil {
		t.Errorf("Signal: %v", err)
	}
	if _, err := m.Signal("add0.zz"); err == nil {
		t.Error("unknown signal resolved")
	}
}

func TestTriggerLatency(t *testing.T) {
	m := newTestMachine(t, 2)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		{Moves: []isa.Move{imm(m, 2, "add0.o"), imm(m, 3, "add0.t")}},
		// Result of 2+3 is visible here; store it.
		{Moves: []isa.Move{mv(m, "add0.r", "gpr.r0")}},
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadSocket("gpr.r0"); got != 5 {
		t.Errorf("gpr.r0 = %d, want 5", got)
	}
	if st := m.Stats(); st.Cycles != 2 || st.MovesExecuted != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOperandAndTriggerSameCycle(t *testing.T) {
	// Writing operand and trigger in the same cycle must use the new
	// operand value (operand commit precedes trigger execution in Clock).
	m := newTestMachine(t, 2)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		{Moves: []isa.Move{imm(m, 10, "add0.o"), imm(m, 20, "add0.t")}},
		{Moves: []isa.Move{mv(m, "add0.r", "gpr.r1")}},
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadSocket("gpr.r1"); got != 30 {
		t.Errorf("gpr.r1 = %d, want 30", got)
	}
}

func TestGuardedMove(t *testing.T) {
	m := newTestMachine(t, 1)
	nz := m.MustSignal("add0.nz")
	guardNZ := isa.Guard{Terms: []isa.GuardTerm{{Signal: nz}}}
	guardZ := isa.Guard{Terms: []isa.GuardTerm{{Signal: nz, Negate: true}}}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		{Moves: []isa.Move{imm(m, 0, "add0.t")}}, // 0+0 = 0: nz false
		{Moves: []isa.Move{{Guard: guardNZ, Src: isa.ImmSrc(111), Dst: m.MustSocket("gpr.r0")}}},
		{Moves: []isa.Move{{Guard: guardZ, Src: isa.ImmSrc(222), Dst: m.MustSocket("gpr.r1")}}},
		{Moves: []isa.Move{imm(m, 7, "add0.t")}}, // 0+7 = 7: nz true
		{Moves: []isa.Move{{Guard: guardNZ, Src: isa.ImmSrc(333), Dst: m.MustSocket("gpr.r2")}}},
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadSocket("gpr.r0"); v != 0 {
		t.Errorf("guard-false move executed: r0 = %d", v)
	}
	if v, _ := m.ReadSocket("gpr.r1"); v != 222 {
		t.Errorf("negated guard move skipped: r1 = %d", v)
	}
	if v, _ := m.ReadSocket("gpr.r2"); v != 333 {
		t.Errorf("guard-true move skipped: r2 = %d", v)
	}
	// Guard-false moves still occupy encoded slots.
	if st := m.Stats(); st.SlotsEncoded != 5 || st.MovesExecuted != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestJumpAndHalt(t *testing.T) {
	m := newTestMachine(t, 1)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		{Moves: []isa.Move{imm(m, 3, "nc.jmp")}},  // 0: jump to 3
		{Moves: []isa.Move{imm(m, 99, "gpr.r0")}}, // 1: skipped
		{Moves: []isa.Move{imm(m, 98, "gpr.r1")}}, // 2: skipped
		{Moves: []isa.Move{imm(m, 1, "gpr.r2")}},  // 3: executed
		{Moves: []isa.Move{imm(m, 0, "nc.halt")}}, // 4: halt
		{Moves: []isa.Move{imm(m, 97, "gpr.r3")}}, // 5: never reached
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	n, err := m.Run(-1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("ran %d cycles, want 3", n)
	}
	if v, _ := m.ReadSocket("gpr.r0"); v != 0 {
		t.Error("skipped instruction executed")
	}
	if v, _ := m.ReadSocket("gpr.r2"); v != 1 {
		t.Error("jump target not executed")
	}
	if v, _ := m.ReadSocket("gpr.r3"); v != 0 {
		t.Error("post-halt instruction executed")
	}
	if !m.Halted() {
		t.Error("machine not halted")
	}
}

func TestBackwardJumpLoop(t *testing.T) {
	// Count 5 iterations using the adder as an accumulator and a guarded
	// exit: loop until r == 5 ... here simply run a bounded loop with an
	// unconditional backward jump and verify Run's cycle limit trips.
	m := newTestMachine(t, 1)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		{Moves: []isa.Move{imm(m, 0, "nc.jmp")}},
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err == nil {
		t.Error("infinite loop did not trip cycle limit")
	}
}

func TestStructuralHazards(t *testing.T) {
	m := newTestMachine(t, 3)
	// Double trigger of one unit in a cycle.
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{{Moves: []isa.Move{
		imm(m, 1, "add0.t"),
		imm(m, 2, "add0.tsub"),
	}}}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err == nil || !strings.Contains(err.Error(), "triggered twice") {
		t.Errorf("double trigger not caught: %v", err)
	}

	// Write to a result socket.
	m2 := newTestMachine(t, 1)
	p2 := isa.NewProgram()
	p2.Ins = []isa.Instruction{{Moves: []isa.Move{imm(m2, 1, "add0.r")}}}
	if err := m2.Load(p2); err != nil {
		t.Fatal(err)
	}
	if err := m2.Step(); err == nil || !strings.Contains(err.Error(), "result socket") {
		t.Errorf("result write not caught: %v", err)
	}

	// Read from an operand socket.
	m3 := newTestMachine(t, 1)
	p3 := isa.NewProgram()
	p3.Ins = []isa.Instruction{{Moves: []isa.Move{mv(m3, "add0.o", "gpr.r0")}}}
	if err := m3.Load(p3); err != nil {
		t.Fatal(err)
	}
	if err := m3.Step(); err == nil || !strings.Contains(err.Error(), "not readable") {
		t.Errorf("operand read not caught: %v", err)
	}
}

func TestRegisterWriteVisibleNextCycle(t *testing.T) {
	m := newTestMachine(t, 2)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		{Moves: []isa.Move{imm(m, 5, "gpr.r0")}},
		// Read r0 (sees 5) and overwrite it in the same cycle.
		{Moves: []isa.Move{mv(m, "gpr.r0", "gpr.r1"), imm(m, 9, "gpr.r0")}},
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadSocket("gpr.r1"); v != 5 {
		t.Errorf("r1 = %d, want 5 (read-before-write)", v)
	}
	if v, _ := m.ReadSocket("gpr.r0"); v != 9 {
		t.Errorf("r0 = %d, want 9", v)
	}
}

// TestTrace: a stepped run reports every cycle — number, PC and the
// events the recorder gained — identically on both step paths, and is
// Run in every other respect (cycle count, budget error, final state).
// The program has a cycle with no moves, a guard that fails, a jump and
// a halt, so every event kind a bare machine records is on the path.
func TestTrace(t *testing.T) {
	build := func(m *Machine) *isa.Program {
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			{Moves: []isa.Move{imm(m, 2, "add0.o"), imm(m, 3, "add0.t")}},
			{}, // encodes no move: still a reported cycle
			{Moves: []isa.Move{guarded(m, mv(m, "add0.r", "gpr.r0"), false),
				guarded(m, imm(m, 9, "gpr.r1"), true)}}, // r != 0: second guard fails
			{Moves: []isa.Move{imm(m, 5, "nc.jmp")}},
			{Moves: []isa.Move{imm(m, 1, "gpr.r2")}}, // skipped by the jump
			{Moves: []isa.Move{imm(m, 0, "nc.halt")}},
		}
		return p
	}
	type cycleRec struct {
		cycle  int64
		pc     int
		events []obs.RecEvent
	}
	stepped := func(t *testing.T, compiled bool, budget int64, pauseAfter int64) ([]cycleRec, int64, bool, error, *Machine) {
		t.Helper()
		m := newTestMachine(t, 2)
		if err := m.Load(build(m)); err != nil {
			t.Fatal(err)
		}
		m.AttachRecorder(4) // smaller than the run: per-cycle reads must not need the whole ring
		if compiled {
			if err := m.UseCompiled(); err != nil {
				t.Fatal(err)
			}
		}
		var recs []cycleRec
		n, paused, err := m.RunStepped(budget, func(cycle int64, pc int, events []obs.RecEvent) bool {
			recs = append(recs, cycleRec{cycle, pc, append([]obs.RecEvent(nil), events...)})
			return pauseAfter < 0 || cycle < pauseAfter
		})
		return recs, n, paused, err, m
	}

	var want []cycleRec
	for _, compiled := range []bool{false, true} {
		name := map[bool]string{false: "interpreted", true: "compiled"}[compiled]
		t.Run(name, func(t *testing.T) {
			recs, n, paused, err, m := stepped(t, compiled, -1, -1)
			if err != nil || paused || n != 5 || !m.Halted() {
				t.Fatalf("stepped run: n=%d paused=%t halted=%t err=%v", n, paused, m.Halted(), err)
			}
			var pcs []int
			var kinds []uint8
			for i, r := range recs {
				if r.cycle != int64(i) {
					t.Errorf("record %d reports cycle %d", i, r.cycle)
				}
				pcs = append(pcs, r.pc)
				for _, e := range r.events {
					if e.Cycle != r.cycle || int(e.PC) != r.pc {
						t.Errorf("cycle %d pc %d carries event %+v", r.cycle, r.pc, e)
					}
					kinds = append(kinds, e.Kind)
				}
			}
			if !reflect.DeepEqual(pcs, []int{0, 1, 2, 3, 5}) {
				t.Errorf("executed PCs %v", pcs)
			}
			wantKinds := []uint8{obs.EvMove, obs.EvTrigger, obs.EvMove, obs.EvGuardFalse, obs.EvJump, obs.EvHalt}
			if !reflect.DeepEqual(kinds, wantKinds) {
				t.Errorf("event kinds %v, want %v", kinds, wantKinds)
			}
			if len(recs[1].events) != 0 {
				t.Errorf("the empty cycle reported events %+v", recs[1].events)
			}
			if e := recs[0].events[1]; m.SocketName(isa.SocketID(e.Dst)) != "add0.t" || e.Src != -1 || e.Value != 3 {
				t.Errorf("trigger event = %+v", e)
			}
			if v, _ := m.ReadSocket("gpr.r0"); v != 5 {
				t.Errorf("r0 = %d, want 5", v)
			}
			if want == nil {
				want = recs
			} else if !reflect.DeepEqual(recs, want) {
				t.Errorf("step paths report different cycles:\ncompiled:    %+v\ninterpreted: %+v", recs, want)
			}

			// The budget is Run's: same count, same error text.
			_, n, paused, err, m = stepped(t, compiled, 3, -1)
			if paused || n != 3 || err == nil || err.Error() != "tta: exceeded 3 cycles (pc=3)" {
				t.Errorf("budget 3: n=%d paused=%t err=%v", n, paused, err)
			}
			// Pausing leaves the machine runnable where it stopped.
			recs, n, paused, err, m = stepped(t, compiled, -1, 1)
			if !paused || err != nil || n != 2 || len(recs) != 2 || m.PC() != 2 || m.Halted() {
				t.Errorf("pause after cycle 1: n=%d paused=%t pc=%d err=%v", n, paused, m.PC(), err)
			}
		})
	}

	// Nothing to read, nothing to report: a stepped run without a
	// recorder is an error, not a silent run.
	m := newTestMachine(t, 2)
	if err := m.Load(build(m)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RunStepped(-1, func(int64, int, []obs.RecEvent) bool { return true }); err == nil {
		t.Error("stepped run without a recorder succeeded")
	}
}

func TestResetAndReload(t *testing.T) {
	m := newTestMachine(t, 2)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		{Moves: []isa.Move{imm(m, 2, "add0.o"), imm(m, 3, "add0.t")}},
		{Moves: []isa.Move{mv(m, "add0.r", "gpr.r0")}},
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if st := m.Stats(); st.Cycles != 0 {
		t.Error("Reset did not clear stats")
	}
	if v, _ := m.ReadSocket("gpr.r0"); v != 0 {
		t.Error("Reset did not clear unit state")
	}
	if m.Halted() {
		t.Error("Reset left machine halted")
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadSocket("gpr.r0"); v != 5 {
		t.Errorf("rerun r0 = %d, want 5", v)
	}
}

func TestBusUtilization(t *testing.T) {
	m := newTestMachine(t, 2)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		{Moves: []isa.Move{imm(m, 1, "gpr.r0"), imm(m, 2, "gpr.r1")}}, // 2 slots
		{Moves: []isa.Move{imm(m, 3, "gpr.r2")}},                      // 1 slot
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().BusUtilization(); got != 0.75 {
		t.Errorf("utilization = %v, want 0.75", got)
	}
}

func TestDescribe(t *testing.T) {
	m := newTestMachine(t, 3)
	d := m.Describe()
	for _, want := range []string{"3 bus(es)", "add0", "gpr", "nz", "sockets"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestRunWithoutProgram(t *testing.T) {
	m := newTestMachine(t, 1)
	if err := m.Step(); err == nil {
		t.Error("Step without program succeeded")
	}
}

func TestLoadValidates(t *testing.T) {
	m := newTestMachine(t, 1)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{{Moves: []isa.Move{
		imm(m, 1, "gpr.r0"), imm(m, 2, "gpr.r1"),
	}}}
	if err := m.Load(p); err == nil {
		t.Error("program wider than bus count accepted")
	}
}

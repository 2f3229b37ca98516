package tta

import (
	"reflect"
	"strings"
	"testing"

	"taco/internal/isa"
)

// stepBoth steps an interpreted machine and a compiled twin one cycle
// and requires the same error text, halt flag, pc, statistics and
// derived counters every cycle, including cycles that end in an error —
// which count nothing, on either path.
func stepBoth(t *testing.T, mi, mc *Machine, cyc int) (error, bool) {
	t.Helper()
	before := mi.Counters()
	errI := mi.Step()
	errC := mc.Step()
	switch {
	case (errI == nil) != (errC == nil):
		t.Fatalf("cycle %d: errors differ: compiled %v, interpreted %v", cyc, errC, errI)
	case errI != nil && errI.Error() != errC.Error():
		t.Fatalf("cycle %d: error text differs: compiled %q, interpreted %q", cyc, errC, errI)
	}
	if mi.Halted() != mc.Halted() || mi.PC() != mc.PC() || mi.Stats() != mc.Stats() {
		t.Fatalf("cycle %d: state differs: compiled halted=%t pc=%d %+v, interpreted halted=%t pc=%d %+v",
			cyc, mc.Halted(), mc.PC(), mc.Stats(), mi.Halted(), mi.PC(), mi.Stats())
	}
	ci, cc := mi.Counters(), mc.Counters()
	if !reflect.DeepEqual(cc, ci) {
		t.Fatalf("cycle %d: counters differ:\ncompiled:    %+v\ninterpreted: %+v", cyc, cc, ci)
	}
	if errI != nil && !reflect.DeepEqual(ci, before) {
		t.Fatalf("cycle %d: failed cycle counted:\nbefore: %+v\nafter:  %+v", cyc, before, ci)
	}
	return errI, mi.Halted()
}

// runEdgeCase loads the program built by build on an interpreted and a
// compiled test machine, runs both in lockstep until halt, error or the
// cycle cap (the compiled side must count natively, bit-identically),
// and returns the interpreter's machine and final error.
func runEdgeCase(t *testing.T, buses int, build func(m *Machine) *isa.Program) (*Machine, error) {
	t.Helper()
	mi, mc := newTestMachine(t, buses), newTestMachine(t, buses)
	if err := mi.Load(build(mi)); err != nil {
		t.Fatal(err)
	}
	if err := mc.Load(build(mc)); err != nil {
		t.Fatal(err)
	}
	if err := mc.UseCompiled(); err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 1000; cyc++ {
		err, halted := stepBoth(t, mi, mc, cyc)
		if err != nil || halted {
			return mi, err
		}
	}
	t.Fatal("no halt within 1000 cycles")
	return nil, nil
}

// guarded builds a move guarded on add0.nz (optionally negated).
func guarded(m *Machine, mov isa.Move, neg bool) isa.Move {
	sig, err := m.Signal("add0.nz")
	if err != nil {
		panic(err)
	}
	mov.Guard = isa.Guard{Terms: []isa.GuardTerm{{Signal: sig, Negate: neg}}}
	return mov
}

// TestStampWraparound forces the 32-bit cycle stamp to wrap and checks
// that the stale stamp arrays are cleared: a socket legitimately written
// in the first post-wrap cycle must not be misreported as a conflicting
// write just because a billion-cycle-old stamp happens to equal the
// recycled value. Exercised on both step paths (they share the arrays).
func TestStampWraparound(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		m := newTestMachine(t, 2)
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			{Moves: []isa.Move{imm(m, 7, "gpr.r0"), imm(m, 1, "gpr.r1")}},
			{Moves: []isa.Move{imm(m, 8, "gpr.r0")}},
		}
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		// One cycle from wrapping; the post-wrap stamp restarts at 1, and
		// these poisoned entries alias it unless the wrap clears them.
		m.stamp = ^uint32(0)
		for i := range m.wrStamp {
			m.wrStamp[i] = 1
		}
		for i := range m.trigStamp {
			m.trigStamp[i] = 1
		}
		if compiled {
			if err := m.UseCompiled(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Run(1000); err != nil {
			t.Fatalf("compiled=%t: wraparound cycle misflagged: %v", compiled, err)
		}
		if got, err := m.ReadSocket("gpr.r0"); err != nil || got != 8 {
			t.Fatalf("compiled=%t: gpr.r0 = %d, %v; want 8", compiled, got, err)
		}
		if m.stamp == 0 || m.stamp > 2 {
			t.Fatalf("compiled=%t: stamp = %d after wrap, want 1 or 2", compiled, m.stamp)
		}
	}
}

// TestGuardNegationTerms drives every guard shape through both step
// paths: plain and negated single terms against a true and a false
// signal, and a self-contradictory two-term conjunction that can never
// fire.
func TestGuardNegationTerms(t *testing.T) {
	cases := []struct {
		name   string
		seed   uint32 // add0 result: nonzero ⇒ nz signal true
		neg    bool
		expect uint32 // gpr.r3 after the guarded move of 9 (0 = suppressed)
	}{
		{"true-signal-plain", 5, false, 9},
		{"true-signal-negated", 5, true, 0},
		{"false-signal-plain", 0, false, 0},
		{"false-signal-negated", 0, true, 9},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m, err := runEdgeCase(t, 2, func(m *Machine) *isa.Program {
				p := isa.NewProgram()
				p.Ins = []isa.Instruction{
					// r = 0 + seed; nz latches (seed != 0) next cycle.
					{Moves: []isa.Move{imm(m, 0, "add0.o"), imm(m, tc.seed, "add0.t")}},
					{Moves: []isa.Move{guarded(m, imm(m, 9, "gpr.r3"), tc.neg)}},
				}
				return p
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, err := m.ReadSocket("gpr.r3"); err != nil || got != tc.expect {
				t.Fatalf("gpr.r3 = %d, %v; want %d", got, err, tc.expect)
			}
		})
	}

	t.Run("contradictory-conjunction", func(t *testing.T) {
		m, err := runEdgeCase(t, 2, func(m *Machine) *isa.Program {
			sig, err := m.Signal("add0.nz")
			if err != nil {
				t.Fatal(err)
			}
			mov := imm(m, 9, "gpr.r3")
			mov.Guard = isa.Guard{Terms: []isa.GuardTerm{
				{Signal: sig}, {Signal: sig, Negate: true},
			}}
			p := isa.NewProgram()
			p.Ins = []isa.Instruction{
				{Moves: []isa.Move{imm(m, 0, "add0.o"), imm(m, 5, "add0.t")}},
				{Moves: []isa.Move{mov}},
			}
			return p
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := m.ReadSocket("gpr.r3"); got != 0 {
			t.Fatalf("contradictory guard executed: gpr.r3 = %d", got)
		}
	})
}

// TestConflictingWriteDetection checks the per-cycle write-conflict and
// double-trigger detectors, including the dynamic case where the
// conflict only materialises when two guards both hold — identically on
// both step paths.
func TestConflictingWriteDetection(t *testing.T) {
	wantErr := func(t *testing.T, err error, frag string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Fatalf("error = %v, want one containing %q", err, frag)
		}
	}
	t.Run("same-destination-rejected-at-load", func(t *testing.T) {
		// Two unguarded writes to one socket are statically detectable, so
		// Load refuses the program before either step path can run it.
		m := newTestMachine(t, 2)
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			{Moves: []isa.Move{imm(m, 1, "gpr.r0"), imm(m, 2, "gpr.r0")}},
		}
		wantErr(t, m.Load(p), "duplicate unguarded write")
	})
	t.Run("double-trigger", func(t *testing.T) {
		_, err := runEdgeCase(t, 2, func(m *Machine) *isa.Program {
			p := isa.NewProgram()
			p.Ins = []isa.Instruction{
				{Moves: []isa.Move{imm(m, 1, "add0.t"), imm(m, 2, "add0.tsub")}},
			}
			return p
		})
		wantErr(t, err, "triggered twice in one cycle")
	})
	t.Run("guarded-conflict-fires", func(t *testing.T) {
		// Both guards hold (nz true), so the two writes collide at runtime.
		_, err := runEdgeCase(t, 3, func(m *Machine) *isa.Program {
			p := isa.NewProgram()
			p.Ins = []isa.Instruction{
				{Moves: []isa.Move{imm(m, 0, "add0.o"), imm(m, 5, "add0.t")}},
				{Moves: []isa.Move{
					guarded(m, imm(m, 1, "gpr.r0"), false),
					guarded(m, imm(m, 2, "gpr.r0"), false),
				}},
			}
			return p
		})
		wantErr(t, err, "conflicting writes to gpr.r0")
	})
	t.Run("guard-failed-then-conflict", func(t *testing.T) {
		// The bus-0 move is squashed before the bus-1/bus-2 writes
		// collide: the failed cycle must leave no trace in the count
		// (stepBoth compares the counters with the cycle before).
		_, err := runEdgeCase(t, 3, func(m *Machine) *isa.Program {
			p := isa.NewProgram()
			p.Ins = []isa.Instruction{
				{Moves: []isa.Move{imm(m, 0, "add0.o"), imm(m, 5, "add0.t")}},
				{Moves: []isa.Move{
					guarded(m, imm(m, 3, "gpr.r1"), true),
					guarded(m, imm(m, 1, "gpr.r0"), false),
					guarded(m, imm(m, 2, "gpr.r0"), false),
				}},
			}
			return p
		})
		wantErr(t, err, "conflicting writes to gpr.r0")
	})
	t.Run("guarded-conflict-suppressed", func(t *testing.T) {
		// Opposite guards: exactly one write executes, so no conflict.
		m, err := runEdgeCase(t, 3, func(m *Machine) *isa.Program {
			p := isa.NewProgram()
			p.Ins = []isa.Instruction{
				{Moves: []isa.Move{imm(m, 0, "add0.o"), imm(m, 5, "add0.t")}},
				{Moves: []isa.Move{
					guarded(m, imm(m, 1, "gpr.r0"), false),
					guarded(m, imm(m, 2, "gpr.r0"), true),
				}},
			}
			return p
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := m.ReadSocket("gpr.r0"); got != 1 {
			t.Fatalf("gpr.r0 = %d, want 1 (the nz-guarded write)", got)
		}
	})
	t.Run("write-to-result-socket", func(t *testing.T) {
		_, err := runEdgeCase(t, 1, func(m *Machine) *isa.Program {
			p := isa.NewProgram()
			p.Ins = []isa.Instruction{
				{Moves: []isa.Move{imm(m, 1, "add0.r")}},
			}
			return p
		})
		wantErr(t, err, "write to result socket")
	})
}

// TestLoadOnCompiledMachine: a compiled machine stays compiled across a
// Load — the new program is lowered, not run on a stale lowering — and
// runs it in lockstep with an interpreted twin.
func TestLoadOnCompiledMachine(t *testing.T) {
	first := func(m *Machine) *isa.Program {
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			{Moves: []isa.Move{imm(m, 2, "add0.o"), imm(m, 3, "add0.t")}},
			{Moves: []isa.Move{mv(m, "add0.r", "gpr.r0")}},
		}
		return p
	}
	second := func(m *Machine) *isa.Program {
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			{Moves: []isa.Move{mv(m, "gpr.r0", "add0.o"), imm(m, 4, "add0.tsub")}},
			{Moves: []isa.Move{guarded(m, mv(m, "add0.r", "gpr.r1"), false),
				guarded(m, imm(m, 9, "gpr.r2"), true)}},
			{Moves: []isa.Move{imm(m, 0, "nc.halt")}},
		}
		return p
	}
	mi, mc := newTestMachine(t, 2), newTestMachine(t, 2)
	for i, build := range []func(*Machine) *isa.Program{first, second} {
		if err := mi.Load(build(mi)); err != nil {
			t.Fatal(err)
		}
		if err := mc.Load(build(mc)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := mc.UseCompiled(); err != nil {
				t.Fatal(err)
			}
		}
		if mi.Compiled() || !mc.Compiled() {
			t.Fatalf("program %d: Compiled() = %t interpreted, %t compiled", i, mi.Compiled(), mc.Compiled())
		}
		for cyc := 0; ; cyc++ {
			err, halted := stepBoth(t, mi, mc, cyc)
			if err != nil {
				t.Fatalf("program %d, cycle %d: %v", i, cyc, err)
			}
			if halted {
				break
			}
		}
	}
	for _, name := range []string{"gpr.r0", "gpr.r1", "gpr.r2"} {
		vi, _ := mi.ReadSocket(name)
		vc, _ := mc.ReadSocket(name)
		if vi != vc {
			t.Errorf("%s = %d compiled, %d interpreted", name, vc, vi)
		}
	}
	if v, _ := mc.ReadSocket("gpr.r1"); v != 1 {
		t.Errorf("gpr.r1 = %d, want 5-4 = 1 from the second program", v)
	}
}

// inbox is a ClockSettled test unit fed from outside the machine, the
// way line cards feed the preprocessing unit: each Clock serves one
// queued item, stamped with the cycle it ran in, and the unit is
// settled while nothing is queued.
type inbox struct {
	PortTable
	queued int
	served []int64
}

func newInbox(name string) *inbox {
	u := &inbox{}
	u.PortTable = PortTable{Name: name, Clocking: ClockSettled, Settled: func() bool { return u.queued == 0 }}
	return u
}

func (u *inbox) Clock(now int64) error {
	if u.queued > 0 {
		u.queued--
		u.served = append(u.served, now)
	}
	return nil
}
func (u *inbox) Reset() { u.queued, u.served = 0, nil }

// TestCompiledWakesSettledUnit: input that arrives between two RunToPC
// calls unsettles a parked ClockSettled unit, and the compiled machine
// must clock it exactly as the interpreter does — same items served in
// the same cycles, same statistics after every call.
func TestCompiledWakesSettledUnit(t *testing.T) {
	build := func() (*Machine, *inbox) {
		u := newInbox("in")
		m, err := New("wake", 1, []Unit{u})
		if err != nil {
			t.Fatal(err)
		}
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{{Moves: []isa.Move{imm(m, 0, "nc.jmp")}}} // spin
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		return m, u
	}
	mi, ui := build()
	mc, uc := build()
	if err := mc.UseCompiled(); err != nil {
		t.Fatal(err)
	}
	for call, arrive := range []int{0, 3, 0, 5} {
		ui.queued += arrive
		uc.queued += arrive
		if _, err := mi.RunToPC(-1, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := mc.RunToPC(-1, 10); err != nil {
			t.Fatal(err)
		}
		if mi.Stats() != mc.Stats() || ui.queued != uc.queued || !reflect.DeepEqual(ui.served, uc.served) {
			t.Fatalf("call %d: compiled %+v queued %d served %v; interpreted %+v queued %d served %v",
				call, mc.Stats(), uc.queued, uc.served, mi.Stats(), ui.queued, ui.served)
		}
	}
	if want := []int64{10, 11, 12, 30, 31, 32, 33, 34}; !reflect.DeepEqual(ui.served, want) {
		t.Fatalf("served in cycles %v, want %v", ui.served, want)
	}
}

// clockCount is a test unit that counts its Clock calls.
type clockCount struct {
	*adder
	clocks int
}

func (c *clockCount) Clock(now int64) error { c.clocks++; return c.adder.Clock(now) }

// TestOperandOverwriteLockstep: on the compiled path a write to an
// Operand socket of a ClockOnWrite unit costs no Clock; the unit's next
// Clock, at its trigger, commits it. An operand written cycles before
// its trigger and overwritten in between must still compute exactly as
// the interpreter, which clocks every unit every cycle.
func TestOperandOverwriteLockstep(t *testing.T) {
	build := func() (*Machine, *clockCount) {
		u := &clockCount{adder: newAdder("acc")}
		u.Clocking = ClockOnWrite
		m, err := New("onwrite", 2, []Unit{u, newRegs("gpr")})
		if err != nil {
			t.Fatal(err)
		}
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			{Moves: []isa.Move{imm(m, 5, "acc.o")}},
			{Moves: []isa.Move{imm(m, 1, "gpr.r1")}},
			{Moves: []isa.Move{imm(m, 7, "acc.o"), imm(m, 2, "gpr.r2")}}, // overwrite
			{Moves: []isa.Move{imm(m, 3, "gpr.r3")}},
			{Moves: []isa.Move{imm(m, 3, "acc.t")}},
			{Moves: []isa.Move{mv(m, "acc.r", "gpr.r0"), imm(m, 9, "acc.o")}},
			{Moves: []isa.Move{imm(m, 1, "acc.tsub")}},
			{Moves: []isa.Move{mv(m, "acc.r", "gpr.r1"), imm(m, 0, "nc.halt")}},
		}
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		return m, u
	}
	mi, ui := build()
	mc, uc := build()
	if err := mc.UseCompiled(); err != nil {
		t.Fatal(err)
	}
	for cyc := 0; !mi.Halted(); cyc++ {
		if err, _ := stepBoth(t, mi, mc, cyc); err != nil {
			t.Fatal(err)
		}
		if got, want := mc.SnapshotSockets(), mi.SnapshotSockets(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: sockets differ:\ncompiled:    %+v\ninterpreted: %+v", cyc, got, want)
		}
	}
	for name, want := range map[string]uint32{"gpr.r0": 7 + 3, "gpr.r1": 9 - 1} {
		if got, _ := mc.ReadSocket(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// The first cycle clocks every unit (nothing is known settled yet),
	// then only the two triggers: no operand write cost a Clock.
	if ui.clocks != 8 || uc.clocks != 3 {
		t.Errorf("acc clocked %d times interpreted, %d compiled; want 8 and 3", ui.clocks, uc.clocks)
	}
}

// countdown is a ClockSettled test unit: a trigger loads a count, and
// every Clock after that counts one down and the result one up. It is
// settled, and its busy line low, once the count is spent.
type countdown struct {
	PortTable
	pendT, left, r uint32
	hasT, busy     bool
}

func newCountdown(name string) *countdown {
	u := &countdown{}
	u.PortTable = PortTable{Name: name, Sockets: []Port{
		{SocketSpec: SocketSpec{"t", Trigger}, Val: &u.pendT, Armed: &u.hasT},
		{SocketSpec: SocketSpec{"r", Result}, Reg: &u.r},
	}, Lines: []Line{{Name: "busy", Flag: &u.busy}},
		Clocking: ClockSettled, Settled: func() bool { return u.left == 0 }}
	return u
}

func (u *countdown) Clock(int64) error {
	if u.hasT {
		u.left, u.hasT = u.pendT, false
	}
	if u.left > 0 {
		u.left--
		u.r++
	}
	u.busy = u.left > 0
	return nil
}
func (u *countdown) Reset() { *u = countdown{PortTable: u.PortTable} }

// TestMoveLoopWakesUnitsLockstep: an instruction that is not lean runs
// through the interpreter's move loop on the compiled path too, and the
// fast path must then wake exactly the units that loop wrote. Here a
// three-term guard makes one instruction the only writer of a parked
// ClockSettled unit's trigger, which must wake it, and of a ClockOnWrite
// unit's operand, which must not cost a Clock. Both machines must agree
// after every cycle.
func TestMoveLoopWakesUnitsLockstep(t *testing.T) {
	build := func() (*Machine, *clockCount) {
		acc := &clockCount{adder: newAdder("acc")}
		acc.Clocking = ClockOnWrite
		m, err := New("wake", 2, []Unit{acc, newCountdown("cd"), newRegs("gpr")})
		if err != nil {
			t.Fatal(err)
		}
		three := isa.Guard{Terms: []isa.GuardTerm{
			{Signal: m.MustSignal("acc.nz")},
			{Signal: m.MustSignal("cd.busy"), Negate: true},
			{Signal: m.MustSignal("acc.nz")},
		}}
		wake, operand := imm(m, 3, "cd.t"), imm(m, 7, "acc.o")
		wake.Guard, operand.Guard = three, three
		p := isa.NewProgram()
		p.Ins = []isa.Instruction{
			{Moves: []isa.Move{imm(m, 0, "acc.o"), imm(m, 5, "acc.t")}},
			{Moves: []isa.Move{imm(m, 1, "gpr.r0")}}, // cd has parked
			{Moves: []isa.Move{wake, operand}},
			{Moves: []isa.Move{imm(m, 2, "gpr.r1")}},
			{Moves: []isa.Move{mv(m, "cd.r", "gpr.r2")}},
			{Moves: []isa.Move{imm(m, 1, "acc.tsub")}},
			{Moves: []isa.Move{mv(m, "acc.r", "gpr.r3"), mv(m, "cd.r", "gpr.r0")}},
			{Moves: []isa.Move{imm(m, 0, "nc.halt")}},
		}
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		return m, acc
	}
	mi, _ := build()
	mc, acc := build()
	if err := mc.UseCompiled(); err != nil {
		t.Fatal(err)
	}
	if mc.fast.ins[2].lean {
		t.Fatal("the three-term-guarded instruction was lowered as lean")
	}
	for cyc := 0; !mi.Halted(); cyc++ {
		if err, _ := stepBoth(t, mi, mc, cyc); err != nil {
			t.Fatal(err)
		}
		if got, want := mc.SnapshotSockets(), mi.SnapshotSockets(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: sockets differ:\ncompiled:    %+v\ninterpreted: %+v", cyc, got, want)
		}
	}
	for name, want := range map[string]uint32{"gpr.r2": 2, "gpr.r3": 7 - 1, "gpr.r0": 3} {
		if got, _ := mc.ReadSocket(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// acc is clocked in the first cycle (nothing is known settled yet)
	// and at its second trigger: the guarded operand write cost no Clock.
	if acc.clocks != 2 {
		t.Errorf("compiled: acc clocked %d times, want 2", acc.clocks)
	}
}

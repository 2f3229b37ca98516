package router

import (
	"strings"
	"testing"

	"taco/internal/fu"
	"taco/internal/program"
	"taco/internal/rtable"
	"taco/internal/tta"
)

// TestCompileRejectsOver64Units: the compiled path keeps one activity
// bit per unit, so a 65-unit machine is refused — by Machine.UseCompiled
// and by TACO.UseCompiled — with an error naming the limit, stays on the
// interpreter, and still runs, and agrees with the golden router, there.
func TestCompileRejectsOver64Units(t *testing.T) {
	limitErr := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "64-unit limit") {
			t.Errorf("%s: error %v, want one naming the 64-unit limit", what, err)
		}
	}

	// A compute machine has eight units with one of each kind.
	cfg := fu.Config3Bus1FU(rtable.Sequential)
	cfg.Counters += tta.MaxCompiledUnits + 1 - 8
	m, err := fu.NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.UnitCount(); n != tta.MaxCompiledUnits+1 {
		t.Fatalf("compute machine has %d units, want %d", n, tta.MaxCompiledUnits+1)
	}
	f3, err := program.Figure3(m, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(f3.Optimized); err != nil {
		t.Fatal(err)
	}
	limitErr("Machine.UseCompiled", m.UseCompiled())
	if m.Compiled() {
		t.Fatal("a refused UseCompiled left the machine on the compiled path")
	}
	mmu := m.Units()[m.UnitCount()-1].(*fu.MMU)
	wide, err := program.RunFigure3(m, f3.Optimized, mmu.Peek)
	if err != nil {
		t.Fatal(err)
	}
	narrow, _ := fu.NewComputeMachine(fu.Config3Bus1FU(rtable.Sequential))
	f3n, err := program.Figure3(narrow, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := program.RunFigure3(narrow, f3n.Optimized, narrow.Units()[narrow.UnitCount()-1].(*fu.MMU).Peek)
	if err != nil || wide != want {
		t.Errorf("Figure 3 on the interpreter: %d units give %d, 8 units %d (%v)", m.UnitCount(), wide, want, err)
	}

	// A router machine adds MMU, RTU, LIU, IPPU and OPPU to seven compute
	// units.
	cfg.Counters = tta.MaxCompiledUnits + 1 - 11
	routes, pkts := buildWorkload(t, 24)
	tr, err := NewTACO(cfg, fillTable(t, cfg.Table, routes), nIfaces)
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.Machine.UnitCount(); n != tta.MaxCompiledUnits+1 {
		t.Fatalf("router machine has %d units, want %d", n, tta.MaxCompiledUnits+1)
	}
	limitErr("UseCompiled", tr.UseCompiled())
	if tr.Machine.Compiled() {
		t.Fatal("a refused UseCompiled left the router on the compiled path")
	}
	tr.AddLocal(routerAddr)
	arrivals := RoundRobin(pkts, nIfaces)
	g := NewGolden(fillTable(t, cfg.Table, routes), nIfaces)
	g.AddLocal(routerAddr)
	run, err := tr.RunChecked(arrivals, g.Expected(arrivals), 20_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Agree() {
		t.Fatalf("65-unit router on the interpreter disagrees with the golden router: %+v", run.Diff)
	}
}

package profile

import (
	"os"
	"strings"
	"testing"

	"taco/internal/asm"
	"taco/internal/fu"
	"taco/internal/isa"
	"taco/internal/linecard"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/tta"
	"taco/internal/workload"
)

type progT = isa.Program

func newProg() *progT           { return isa.NewProgram() }
func emptyIns() isa.Instruction { return isa.Instruction{} }

// profiledRouter forwards 16 datagrams through a batch run on the
// interpreter and profiles the machine's execution count.
func profiledRouter(t *testing.T, kind rtable.Kind, cfg fu.Config, entries int) (*router.TACO, *Profile) {
	t.Helper()
	return profiledRouterOn(t, kind, cfg, entries, false)
}

func profiledRouterOn(t *testing.T, kind rtable.Kind, cfg fu.Config, entries int, compiled bool) (*router.TACO, *Profile) {
	t.Helper()
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: entries, Ifaces: 4, Seed: 1})
	tbl := rtable.New(kind)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		t.Fatal(err)
	}
	tr, err := router.NewTACO(cfg, tbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if compiled {
		if err := tr.UseCompiled(); err != nil {
			t.Fatal(err)
		}
	}
	pkts, err := workload.GenerateTraffic(routes, workload.PaperTrafficSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	for i, pk := range pkts {
		tr.Deliver(i%4, linecard.Datagram{Data: pk.Data, Seq: pk.Seq})
	}
	if err := tr.Run(int64(len(pkts)), 10_000_000); err != nil {
		t.Fatal(err)
	}
	return tr, New(tr.Sched.Program, tr.Machine.Count())
}

// region returns the region labelled exactly label.
func region(t *testing.T, p *Profile, label string) Region {
	t.Helper()
	for _, r := range p.Regions() {
		if r.Label == label {
			return r
		}
	}
	t.Fatalf("no region labelled %q in\n%s", label, p)
	return Region{}
}

// TestProfileAccountsEveryCycle: on both step paths every executed
// cycle lands in exactly one region, every executed move is counted,
// and the two paths yield the same table — for a forwarding run, and
// for testdata/trace/loop.tasm, whose "done" region starts with a cycle
// that encodes no move.
func TestProfileAccountsEveryCycle(t *testing.T) {
	check := func(t *testing.T, p *Profile, st tta.Stats) string {
		t.Helper()
		if p.Total() != st.Cycles {
			t.Fatalf("profiled %d cycles, machine ran %d", p.Total(), st.Cycles)
		}
		var cycles, moves int64
		for _, r := range p.Regions() {
			cycles += r.Cycles
			moves += r.MovesIssued
		}
		if cycles != p.Total() {
			t.Fatalf("regions sum to %d of %d cycles", cycles, p.Total())
		}
		if moves != st.MovesExecuted {
			t.Fatalf("regions count %d moves, machine executed %d", moves, st.MovesExecuted)
		}
		return p.String()
	}
	src, err := os.ReadFile("../../testdata/trace/loop.tasm")
	if err != nil {
		t.Fatal(err)
	}
	var router, loop [2]string
	for i, compiled := range []bool{false, true} {
		tr, p := profiledRouterOn(t, rtable.BalancedTree, fu.Config3Bus1FU(rtable.BalancedTree), 100, compiled)
		router[i] = check(t, p, tr.Machine.Stats())

		m, err := fu.NewComputeMachine(fu.Config3Bus1FU(0))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Assemble(string(src), m)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(prog); err != nil {
			t.Fatal(err)
		}
		if compiled {
			if err := m.UseCompiled(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Run(1000); err != nil {
			t.Fatal(err)
		}
		p = New(prog, m.Count())
		loop[i] = check(t, p, m.Stats())
		// done = nop + move + halt: three cycles, two executed moves.
		if r := region(t, p, "done"); r.Cycles != 3 || r.MovesIssued != 2 {
			t.Errorf("compiled=%t: done region = %+v, want 3 cycles and 2 moves", compiled, r)
		}
	}
	if router[0] != router[1] || loop[0] != loop[1] {
		t.Errorf("step paths profile differently:\ninterpreted:\n%s%s\ncompiled:\n%s%s",
			router[0], loop[0], router[1], loop[1])
	}
}

// TestSequentialBottleneckIsTheScan verifies the paper's key bottleneck
// finding mechanically: on the sequential organisation, the scan loop
// dominates the per-datagram cycles.
func TestSequentialBottleneckIsTheScan(t *testing.T) {
	_, p := profiledRouter(t, rtable.Sequential, fu.Config1Bus1FU(rtable.Sequential), 100)
	scan := region(t, p, "seqloop").Cycles
	if scan == 0 {
		t.Fatal("no cycles attributed to the scan loop")
	}
	if frac := float64(scan) / float64(p.Total()); frac < 0.8 {
		t.Errorf("scan loop is only %.0f%% of cycles; expected the dominant bottleneck", frac*100)
	}
}

// TestCAMBottleneckIsNotTheLookup: with the CAM the lookup shrinks to a
// wait loop and the fixed per-datagram work dominates instead.
func TestCAMBottleneckIsNotTheLookup(t *testing.T) {
	_, p := profiledRouter(t, rtable.CAM, fu.Config3Bus1FU(rtable.CAM), 100)
	wait := region(t, p, "camwait").Cycles
	if frac := float64(wait) / float64(p.Total()); frac > 0.5 {
		t.Errorf("CAM wait is %.0f%% of cycles; lookup should no longer dominate", frac*100)
	}
}

func TestProfileString(t *testing.T) {
	_, p := profiledRouter(t, rtable.BalancedTree, fu.Config3Bus1FU(rtable.BalancedTree), 50)
	s := p.String()
	for _, want := range []string{"region", "treeloop", "total cycles"} {
		if !strings.Contains(s, want) {
			t.Errorf("profile output missing %q:\n%s", want, s)
		}
	}
}

func TestRegionsCoverProgram(t *testing.T) {
	tr, p := profiledRouter(t, rtable.CAM, fu.Config1Bus1FU(rtable.CAM), 10)
	covered := make([]bool, len(tr.Sched.Program.Ins))
	for _, r := range p.Regions() {
		for a := r.Start; a < r.End; a++ {
			if covered[a] {
				t.Fatalf("address %d in two regions", a)
			}
			covered[a] = true
		}
	}
	for a, c := range covered {
		if !c {
			t.Fatalf("address %d in no region", a)
		}
	}
}

func TestColocatedLabels(t *testing.T) {
	// Two labels bound to one address (including a non-zero one) must
	// collapse into a single region without panicking.
	prog := isaProgram(6, map[string]int{
		"a": 0, "b": 0, "x": 3, "y": 3,
	})
	p := New(prog, tta.Count{})
	regions := p.Regions()
	if len(regions) != 2 || regions[0].Label != "a/b" || regions[1].Label != "x/y" {
		t.Fatalf("%d regions: %+v", len(regions), regions)
	}
	for _, r := range regions {
		if r.Cycles != 0 || r.MovesIssued != 0 { // nothing counted
			t.Errorf("phantom cycles in %+v", r)
		}
	}
}

// isaProgram builds a trivial n-instruction program with the given labels.
func isaProgram(n int, labels map[string]int) *progT {
	p := newProg()
	for i := 0; i < n; i++ {
		p.Ins = append(p.Ins, emptyIns())
	}
	for k, v := range labels {
		p.Labels[k] = v
	}
	return p
}

package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"taco/internal/forensics"
	"taco/internal/fu"
	"taco/internal/router"
	"taco/internal/rtable"
)

func smallSim() SimOptions {
	return SimOptions{Packets: 24, Seed: 2003, MissRatio: 0.05, Ifaces: 4}
}

func TestEvaluateSingle(t *testing.T) {
	m, err := Evaluate(fu.Config3Bus1FU(rtable.CAM), PaperConstraints(), smallSim())
	if err != nil {
		t.Fatal(err)
	}
	if m.CyclesPerPacket <= 0 || m.RequiredClockHz <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	if m.BusUtilization <= 0 || m.BusUtilization > 1 {
		t.Errorf("bus utilization %v out of range", m.BusUtilization)
	}
	if !m.ClockFeasible {
		t.Error("CAM 3-bus should be easily feasible")
	}
	if m.CAMChipPowerW < 1.5 || m.CAMChipPowerW > 2 {
		t.Errorf("CAM chip power %v outside the paper's 1.5-2 W", m.CAMChipPowerW)
	}
	if !m.Acceptable() {
		t.Error("CAM 3-bus should be acceptable")
	}
}

func TestCAMFUInsensitivity(t *testing.T) {
	cons := PaperConstraints()
	sim := smallSim()
	b, err := Evaluate(fu.Config3Bus1FU(rtable.CAM), cons, sim)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Evaluate(fu.Config3Bus3FU(rtable.CAM), cons, sim)
	if err != nil {
		t.Fatal(err)
	}
	// Same or barely-better clock, strictly more area and power — the
	// paper's argument against replication in the CAM case.
	if f.RequiredClockHz < 0.85*b.RequiredClockHz {
		t.Errorf("replication gained too much on CAM: %.3g vs %.3g",
			f.RequiredClockHz, b.RequiredClockHz)
	}
	if f.Est.AreaMM2 <= b.Est.AreaMM2 {
		t.Errorf("replication did not cost area: %.2f vs %.2f", f.Est.AreaMM2, b.Est.AreaMM2)
	}
	if f.Est.PowerW <= b.Est.PowerW {
		t.Errorf("replication did not cost power: %.3f vs %.3f", f.Est.PowerW, b.Est.PowerW)
	}
}

func TestPacketRate(t *testing.T) {
	c := PaperConstraints()
	rate := c.PacketRate()
	if rate < 2.4e6 || rate > 2.5e6 {
		t.Errorf("packet rate %v, want ≈2.44 Mpps (10 Gbps / 512 B)", rate)
	}
}

func TestEvaluateCAMConverged(t *testing.T) {
	cons := PaperConstraints()
	sim := smallSim()
	// At 512-byte datagrams the paper's operating point holds: the
	// default 5-cycle wait covers 40 ns at the resulting clock.
	m, iters, err := EvaluateCAMConverged(fu.Config3Bus1FU(rtable.CAM), cons, sim)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ClockFeasible {
		t.Error("converged CAM instance infeasible at 512 B")
	}
	waitNs := float64(m.Config.CAMWaitCycles) / m.RequiredClockHz * 1e9
	if waitNs < 40 {
		t.Errorf("converged wait %d cycles = %.1f ns < 40 ns search time",
			m.Config.CAMWaitCycles, waitNs)
	}
	t.Logf("512 B: %d iterations, wait %d cycles, required %v MHz",
		iters, m.Config.CAMWaitCycles, m.RequiredClockHz/1e6)

	// At 64-byte line rate the packet rate is 8x higher; the fixed
	// point must settle at a higher wait and a feasible-or-not verdict
	// that accounts for it.
	hard := cons
	hard.PacketBytes = 64
	m64, iters64, err := EvaluateCAMConverged(fu.Config3Bus1FU(rtable.CAM), hard, sim)
	if err != nil {
		t.Fatal(err)
	}
	if m64.Config.CAMWaitCycles <= m.Config.CAMWaitCycles {
		t.Errorf("64 B wait %d cycles not above 512 B wait %d",
			m64.Config.CAMWaitCycles, m.Config.CAMWaitCycles)
	}
	wait64Ns := float64(m64.Config.CAMWaitCycles) / m64.RequiredClockHz * 1e9
	if wait64Ns < 40 {
		t.Errorf("64 B converged wait %.1f ns < 40 ns", wait64Ns)
	}
	t.Logf("64 B: %d iterations, wait %d cycles, required %v MHz",
		iters64, m64.Config.CAMWaitCycles, m64.RequiredClockHz/1e6)

	// Non-CAM configurations are rejected.
	if _, _, err := EvaluateCAMConverged(fu.Config1Bus1FU(rtable.Sequential), cons, sim); err == nil {
		t.Error("sequential configuration accepted")
	}
}

// TestMaxCyclesPerPacketBudget pins the watchdog override: a budget too
// small for the sequential scan must surface a StallError whose dump is
// identical on the interpreted and compiled paths (same cycle count, pc,
// progress counters, line-card stats and socket snapshot), and raising
// the budget must clear the stall on both.
func TestMaxCyclesPerPacketBudget(t *testing.T) {
	cfg := fu.Config1Bus1FU(rtable.Sequential)
	cons := PaperConstraints()

	stallDump := func(compiled bool) *router.StallError {
		sim := smallSim()
		sim.MaxCyclesPerPacket = 100 // the 100-entry scan alone needs ~1700
		sim.Compiled = compiled
		_, err := Evaluate(cfg, cons, sim)
		var se *router.StallError
		if !errors.As(err, &se) {
			t.Fatalf("compiled=%t: got %v, want a *StallError", compiled, err)
		}
		return se
	}
	seI, seC := stallDump(false), stallDump(true)
	if !reflect.DeepEqual(seI, seC) {
		t.Fatalf("stall dumps differ:\ninterpreted: %+v\ncompiled:    %+v", seI, seC)
	}
	if seI.MaxCycles != int64(smallSim().Packets)*100 {
		t.Errorf("budget = %d, want Packets×MaxCyclesPerPacket = %d",
			seI.MaxCycles, int64(smallSim().Packets)*100)
	}

	for _, compiled := range []bool{false, true} {
		sim := smallSim()
		sim.MaxCyclesPerPacket = 4096
		sim.Compiled = compiled
		if _, err := Evaluate(cfg, cons, sim); err != nil {
			t.Errorf("compiled=%t: generous per-packet budget still stalled: %v", compiled, err)
		}
	}
}

// TestEvaluateRejectsDivergence: Evaluate checks its run against the
// golden reference. One forwarded datagram planted out another interface
// in the shared reference outcomes makes the instance fail with no
// Metrics; with ForensicsDir set the error carries a fate-divergence
// bundle whose fates differ at exactly the planted seq.
func TestEvaluateRejectsDivergence(t *testing.T) {
	cfg, cons := fu.Config3Bus1FU(rtable.BalancedTree), PaperConstraints()
	for _, dir := range []string{"", t.TempDir()} {
		sim := smallSim()
		sim.ForensicsDir = dir
		var c SweepCache
		in := c.inputs(cons, sim)
		if in.err != nil {
			t.Fatal(in.err)
		}
		i := slices.IndexFunc(in.want.Datagrams, func(o router.Outcome) bool { return o.Action == router.Forward })
		if i < 0 {
			t.Fatal("workload forwards nothing")
		}
		planted := &in.want.Datagrams[i] // shared with c: Evaluate reads this one
		planted.Iface = (planted.Iface + 1) % sim.Ifaces

		m, err := c.Evaluate(cfg, cons, sim)
		if err == nil {
			t.Fatalf("dir %q: a run that disagrees with the reference evaluated clean", dir)
		}
		if !reflect.DeepEqual(m, Metrics{}) {
			t.Errorf("dir %q: a failed evaluation returned Metrics %+v", dir, m)
		}
		if dir == "" {
			continue
		}
		path := forensics.BundlePath(err)
		if path == "" {
			t.Fatalf("divergence captured no bundle: %v", err)
		}
		b, err := forensics.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if b.Kind != forensics.KindFateDivergence || len(b.WantFates) != len(b.GotFates) {
			t.Fatalf("bundle kind %q with %d want and %d got fates, want a fate divergence",
				b.Kind, len(b.WantFates), len(b.GotFates))
		}
		var differ []int64
		for k := range b.WantFates {
			if b.WantFates[k] != b.GotFates[k] {
				differ = append(differ, b.WantFates[k].Seq)
			}
		}
		if !slices.Equal(differ, []int64{planted.Seq}) {
			t.Errorf("fates differ at seqs %v, want only the planted %d", differ, planted.Seq)
		}
	}
}

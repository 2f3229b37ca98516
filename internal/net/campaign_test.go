package net

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/forensics"
)

// An injected blackhole must fail the campaign, serialize a
// net-invariant forensics.Bundle, and that bundle must replay to the
// exact recorded failure through the forensics pipeline (the in-process
// equivalent of tacoreplay).
func TestInjectedViolationProducesReplayableBundle(t *testing.T) {
	dir := t.TempDir()
	m := mustMesh(t, "ring", 6, Options{Seed: 23, Mix: "mixed", ForensicsDir: dir})
	rep := RunCampaign(m, CampaignOptions{
		Flaps: 1, Partition: true, InjectViolation: true,
	})
	if rep.Verdict != "FAIL" {
		t.Fatal("campaign with an injected blackhole reported PASS")
	}
	if !rep.InjectedViolation {
		t.Fatal("injection did not take")
	}
	if len(rep.Violations) == 0 || len(rep.Bundles) == 0 {
		t.Fatalf("no violation/bundle captured: %+v", rep)
	}
	replayed := 0
	for _, path := range rep.Bundles {
		if !strings.Contains(filepath.Base(path), forensics.KindNetInvariant) {
			continue
		}
		b, err := forensics.Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		if b.Kind != forensics.KindNetInvariant {
			t.Fatalf("bundle kind %q, want %q", b.Kind, forensics.KindNetInvariant)
		}
		res, err := forensics.Replay(b, forensics.ReplayOptions{})
		if err != nil {
			t.Fatalf("Replay(%s): %v", path, err)
		}
		if err := forensics.CheckReproduction(b, res); err != nil {
			t.Fatalf("bundle %s did not reproduce: %v", path, err)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("no net-invariant bundles to replay")
	}
}

// A forensics directory that cannot be written must not silence a
// capture: a violation that gets no bundle says why in its detail, on
// the probe-witnessed path and on the stall path alike.
func TestCaptureFailureIsRecorded(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(name string, vs []Violation) {
		if len(vs) == 0 {
			t.Fatalf("%s: no violations", name)
		}
		for _, v := range vs {
			if v.Bundle != "" || !strings.Contains(v.Detail, "forensics capture failed") {
				t.Errorf("%s: capture failure not recorded: %+v", name, v)
			}
		}
	}

	m := mustMesh(t, "ring", 6, Options{Seed: 23, Mix: "mixed", ForensicsDir: notDir})
	rep := RunCampaign(m, CampaignOptions{Flaps: 1, Partition: true, InjectViolation: true})
	if len(rep.Bundles) != 0 {
		t.Errorf("bundles written to a regular file: %v", rep.Bundles)
	}
	check("injected blackhole", rep.Violations)

	m = mustMesh(t, "ring", 8, Options{Seed: 29, Mix: "mixed", ForensicsDir: notDir, MaxCyclesPerProbe: 3})
	if _, ok := m.RunUntilConverged(m.convergeBudget()); !ok {
		t.Fatalf("no convergence: %s", m.Divergence())
	}
	m.SweepProbes(2)
	for m.InFlight() > 0 {
		m.Step()
	}
	check("starved watchdog", m.Violations())
}

// A starved watchdog budget must stall the TACO node on its first probe
// hop, quarantine it (the campaign keeps running on the golden path),
// and capture a stall bundle that replays to the same cause and cycle.
func TestStallQuarantineKeepsCampaignRunning(t *testing.T) {
	dir := t.TempDir()
	m := mustMesh(t, "ring", 8, Options{
		Seed: 29, Mix: "mixed", ForensicsDir: dir,
		MaxCyclesPerProbe: 3, // far below any classify latency
	})
	if _, ok := m.RunUntilConverged(m.convergeBudget()); !ok {
		t.Fatalf("no convergence: %s", m.Divergence())
	}
	m.SweepProbes(2)
	for m.InFlight() > 0 {
		m.Step()
	}
	quarantined := m.Quarantined()
	if len(quarantined) == 0 {
		t.Fatal("starved watchdog quarantined no nodes")
	}
	_, _, stalls := m.TACOTotals()
	if stalls == 0 {
		t.Fatal("no stalls recorded")
	}
	// Every probe still resolved — the quarantined nodes fell back to
	// the golden path and traffic kept flowing.
	delivered := 0
	for _, oc := range m.DrainOutcomes() {
		if oc.Result == "delivered" {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("no probes delivered after quarantine")
	}
	stallBundles := 0
	for _, v := range m.Violations() {
		if v.Invariant != "stall-quarantine" {
			t.Errorf("unexpected violation: %+v", v)
			continue
		}
		if v.Bundle == "" {
			t.Error("stall violation has no bundle")
			continue
		}
		b, err := forensics.Load(v.Bundle)
		if err != nil {
			t.Fatal(err)
		}
		if b.Kind != forensics.KindStall {
			t.Fatalf("bundle kind %q, want stall", b.Kind)
		}
		res, err := forensics.Replay(b, forensics.ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := forensics.CheckReproduction(b, res); err != nil {
			t.Fatalf("stall bundle did not reproduce: %v", err)
		}
		stallBundles++
	}
	if stallBundles == 0 {
		t.Fatal("no stall bundles captured")
	}
}

// Convergence curves are deterministic per seed and monotone in effort:
// every point must converge within its derived budget.
func TestConvergenceCurves(t *testing.T) {
	pts, err := ConvergenceCurve("fattree", []int{2, 4, 6}, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3", len(pts))
	}
	for _, p := range pts {
		if !p.Converged {
			t.Fatalf("%s did not converge in %d ticks", p.Topo, p.Ticks)
		}
	}
	again, err := ConvergenceCurve("fattree", []int{2, 4, 6}, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i] != again[i] {
			t.Fatalf("curve point %d not deterministic: %+v vs %+v", i, pts[i], again[i])
		}
	}
}

// Poison storms must be absorbed: a converged golden mesh hit by a
// storm reconverges and passes a clean sweep.
func TestPoisonStormRecovery(t *testing.T) {
	m := mustMesh(t, "scalefree", 16, Options{Seed: 37})
	if _, ok := m.RunUntilConverged(m.convergeBudget()); !ok {
		t.Fatalf("no convergence: %s", m.Divergence())
	}
	m.ScheduleStorm(3, m.Now()+1)
	m.RunTicks(3)
	if _, ok := m.RunUntilConverged(m.convergeBudget()); !ok {
		t.Fatalf("no reconvergence after storm: %s", m.Divergence())
	}
	sweepAllDeliver(t, m, "post-storm")
}

// A crash without restart removes the node and its stub from the
// oracle; the mesh must reconverge to the smaller network.
func TestCrashWithoutRestart(t *testing.T) {
	m := mustMesh(t, "ring", 6, Options{Seed: 41})
	if _, ok := m.RunUntilConverged(m.convergeBudget()); !ok {
		t.Fatalf("no convergence: %s", m.Divergence())
	}
	m.ScheduleCrash(2, m.Now()+1, -1)
	m.RunTicks(2)
	if _, ok := m.RunUntilConverged(m.convergeBudget()); !ok {
		t.Fatalf("no reconvergence after crash: %s", m.Divergence())
	}
	if m.Alive(2) {
		t.Fatal("node 2 still alive")
	}
	for _, id := range []int{0, 1, 3, 4, 5} {
		for _, r := range m.Routes(id) {
			if r.Prefix == StubPrefix(2) {
				t.Fatalf("node %d still routes to the dead node's stub", id)
			}
		}
	}
	sweepAllDeliver(t, m, "post-crash")
}

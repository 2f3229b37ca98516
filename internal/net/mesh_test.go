package net

import (
	"testing"
)

func mustMesh(t *testing.T, kind string, size int, opt Options) *Mesh {
	t.Helper()
	topo, err := Generate(kind, size, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMesh(topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A cold-started mesh must converge to the oracle within the derived
// budget, for every topology kind.
func TestColdStartConvergence(t *testing.T) {
	for _, tc := range []struct {
		kind string
		size int
	}{
		{"line", 5},
		{"ring", 6},
		{"scalefree", 12},
		{"fattree", 4},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			m := mustMesh(t, tc.kind, tc.size, Options{Seed: 1})
			ticks, ok := m.RunUntilConverged(m.convergeBudget())
			if !ok {
				t.Fatalf("%s-%d did not converge in %d ticks: %s",
					tc.kind, tc.size, m.convergeBudget(), m.Divergence())
			}
			t.Logf("%s-%d converged in %d ticks", tc.kind, tc.size, ticks)
			if s := m.NextHopSound(); s != "" {
				t.Fatalf("next-hop unsound: %s", s)
			}
			if probs := m.AuditConservation(); len(probs) > 0 {
				t.Fatalf("audit: %v", probs)
			}
		})
	}
}

// Converged sweep probes must all deliver, on golden and mixed meshes.
func TestSweepDelivery(t *testing.T) {
	for _, mix := range []string{"golden", "mixed"} {
		t.Run(mix, func(t *testing.T) {
			m := mustMesh(t, "ring", 8, Options{Seed: 2, Mix: mix})
			if _, ok := m.RunUntilConverged(m.convergeBudget()); !ok {
				t.Fatalf("no convergence: %s", m.Divergence())
			}
			m.SetConvergedWindow(true)
			launched := m.SweepProbes(3)
			if launched == 0 {
				t.Fatal("no probes launched")
			}
			for m.InFlight() > 0 {
				m.Step()
			}
			delivered := 0
			for _, oc := range m.DrainOutcomes() {
				if oc.Result == "delivered" {
					delivered++
				} else {
					t.Errorf("probe %d died: %s at node %d", oc.ID, oc.Result, oc.DiedAt)
				}
			}
			if delivered != launched {
				t.Fatalf("delivered %d of %d", delivered, launched)
			}
			if len(m.Violations()) != 0 {
				t.Fatalf("violations: %v", m.Violations())
			}
			if probs := m.AuditConservation(); len(probs) > 0 {
				t.Fatalf("audit: %v", probs)
			}
			if mix == "mixed" {
				hops, div, stalls := m.TACOTotals()
				if hops == 0 {
					t.Fatal("mixed mesh exercised no TACO hops")
				}
				if div != 0 || stalls != 0 {
					t.Fatalf("TACO divergences=%d stalls=%d", div, stalls)
				}
			}
		})
	}
}

// Identical seeds must produce identical campaigns for any worker count.
func TestWorkerDeterminism(t *testing.T) {
	run := func(workers int) *CampaignReport {
		m := mustMesh(t, "fattree", 4, Options{Seed: 7, Mix: "mixed", Workers: workers})
		return RunCampaign(m, CampaignOptions{Flaps: 3, Partition: true, Storms: 1})
	}
	r1 := run(1)
	r4 := run(4)
	var b1, b4 []byte
	for _, pair := range []struct {
		r   *CampaignReport
		buf *[]byte
	}{{r1, &b1}, {r4, &b4}} {
		var sb testWriter
		if err := pair.r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if err := pair.r.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		if err := pair.r.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		*pair.buf = sb
	}
	if string(b1) != string(b4) {
		t.Fatalf("reports differ between workers 1 and 4:\n--- workers=1\n%s\n--- workers=4\n%s", b1, b4)
	}
	if r1.Verdict != "PASS" {
		t.Fatalf("campaign failed:\n%s", b1)
	}
}

type testWriter []byte

func (w *testWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of what is put back on purpose.
var raceEnabled bool

// Once converged, a mesh's control plane recycles its buffers: frames,
// exported RTEs and decoded RTEs come from pools, and Collect reuses its
// batch slices. A steady-state tick of a fat-tree-4 (20 nodes, a
// periodic update every DefaultUpdateTicks) measures one allocation, the
// per-tick node closure; a fresh frame per transmission or a fresh batch
// per Collect adds several per tick.
func TestSteadyStateTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers")
	}
	m := mustMesh(t, "fattree", 4, Options{Seed: 1})
	if _, ok := m.RunUntilConverged(m.convergeBudget()); !ok {
		t.Fatalf("no convergence: %s", m.Divergence())
	}
	m.RunTicks(2 * int64(DefaultUpdateTicks)) // fill the pools
	if got := testing.AllocsPerRun(4*int(DefaultUpdateTicks), m.Step); got > 1 {
		t.Errorf("a steady-state tick allocates %v times, want at most 1", got)
	}
}

package dse

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"taco/internal/core"
	"taco/internal/rtable"
)

// TestSweepSharingMatchesStandalone: sharing inputs across a sweep
// changes no result. Every point of the large-table grid, with and
// without churn, at one worker and at eight, equals a stand-alone
// core.EvaluateScaled of the same instance; and the nine Table 1 cells,
// which draw one routes-and-traffic set, equal nine stand-alone
// core.Evaluate calls at one worker and at four, on either step path.
func TestSweepSharingMatchesStandalone(t *testing.T) {
	cons, sim := core.PaperConstraints(), testSim()
	for _, churn := range []int{0, 100} {
		insts := LargeTableInstances(nil, []int{500, 2000, 10000}, churn, cons, sim)
		want := make([]core.Metrics, len(insts))
		for i, inst := range insts {
			m, err := core.EvaluateScaled(inst.Cfg, *inst.Scale, inst.Cons, inst.Sim)
			if err != nil {
				t.Fatalf("%s: %v", inst.Label, err)
			}
			want[i] = m
		}
		for _, workers := range []int{1, 8} {
			pts, err := Sweep(context.Background(), insts, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				if p.Err != "" || !reflect.DeepEqual(p.Metrics, want[i]) {
					t.Errorf("churn %d workers %d %s: shared sweep\n %+v (err %q)\nstand-alone\n %+v",
						churn, workers, insts[i].Label, p.Metrics, p.Err, want[i])
				}
			}
		}
	}
	for _, compiled := range []bool{true, false} {
		sim := testSim()
		sim.Compiled = compiled
		insts := Table1Instances(cons, sim)
		want := make([]core.Metrics, len(insts))
		for i, inst := range insts {
			m, err := core.Evaluate(inst.Cfg, inst.Cons, inst.Sim)
			if err != nil {
				t.Fatalf("%s: %v", inst.Label, err)
			}
			want[i] = m
		}
		for _, workers := range []int{1, 4} {
			got, err := Table1(context.Background(), cons, sim, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("compiled %v workers %d %s: shared sweep\n %+v\nstand-alone\n %+v",
						compiled, workers, insts[i].Label, got[i], want[i])
				}
			}
		}
	}
}

// TestSweepSharedAnchorFailure: an anchor that stalls (starved watchdog
// budget) is run once and fails every instance that shares it with the
// same text — the stand-alone call's text — whatever the worker count.
func TestSweepSharedAnchorFailure(t *testing.T) {
	cons, sim := core.PaperConstraints(), testSim()
	sim.MaxCyclesPerPacket = 1
	insts := LargeTableInstances(nil, []int{500, 2000}, 0, cons, sim)
	var first []Point
	for _, workers := range []int{1, 8} {
		pts, err := Sweep(context.Background(), insts, workers)
		if err != nil {
			t.Fatal(err)
		}
		byDonor := map[rtable.Kind]string{}
		for i, p := range pts {
			_, err := core.EvaluateScaled(insts[i].Cfg, *insts[i].Scale, insts[i].Cons, insts[i].Sim)
			if err == nil || p.Err != err.Error() {
				t.Fatalf("workers %d %s: Err %q, stand-alone %v", workers, insts[i].Label, p.Err, err)
			}
			donor := insts[i].Cfg.Table
			switch donor {
			case rtable.Multibit, rtable.TiledTCAM, rtable.Compressed:
				donor = rtable.BalancedTree
			}
			if prev, ok := byDonor[donor]; ok && prev != p.Err {
				t.Errorf("workers %d %s: Err %q differs from its donor's %q", workers, insts[i].Label, p.Err, prev)
			}
			byDonor[donor] = p.Err
		}
		if first == nil {
			first = pts
		} else if !reflect.DeepEqual(pts, first) {
			t.Error("failed sweep differs between workers 1 and 8")
		}
	}
}

// TestSweepReleasesSharedInputs: the shared route sets live exactly as
// long as the Sweep call. The 60 000-route set alone is 3.8 MB; after
// the call returns the live heap must be back within a fraction of that.
func TestSweepReleasesSharedInputs(t *testing.T) {
	insts := LargeTableInstances([]rtable.Kind{rtable.Multibit, rtable.Compressed},
		[]int{60000}, 0, core.PaperConstraints(), testSim())
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	pts, err := Sweep(context.Background(), insts, 2)
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	if after > before+1<<20 {
		t.Fatalf("live heap grew %d bytes across Sweep: shared inputs retained", after-before)
	}
	runtime.KeepAlive(pts)
}

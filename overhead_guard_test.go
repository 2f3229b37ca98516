//go:build overhead

package taco_test

import (
	"sort"
	"testing"

	"taco/internal/fu"
	"taco/internal/router"
	"taco/internal/rtable"
)

// TestObservationOverhead is the timing gate `make overhead-guard` runs:
// observation must stay cheap enough to leave on. Over the nine Table 1
// cells on the compiled path (BenchmarkTable1Compiled's batch, median of
// three runs per cell, summed), counters attached may cost at most 1.3x
// and an armed flight recorder at most 1.6x of the bare sweep. The three
// arms of a cell are timed back to back so slow phases of a shared host
// land on all of them. It is behind a build tag because it asserts on
// wall-clock time.
func TestObservationOverhead(t *testing.T) {
	arms := []struct {
		name  string
		arm   func(*router.TACO)
		bound float64 // of the bare sweep; 0 for the bare arm itself
	}{
		{"bare", nil, 0},
		{"counters", func(tr *router.TACO) { tr.Machine.AttachCounters() }, 1.3},
		{"recorder", func(tr *router.TACO) { tr.ArmRecorder(0) }, 1.6},
	}
	const runs = 3
	sums := make([]int64, len(arms))
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, cfg := range fu.PaperConfigs(kind) {
			ns := make([][]int64, len(arms))
			for r := 0; r < runs; r++ {
				for i, a := range arms {
					res := testing.Benchmark(func(b *testing.B) {
						runForwardingMode(b, kind, cfg, 100, true, a.arm)
					})
					if res.N == 0 {
						t.Fatalf("%s/%s compiled+%s: benchmark failed", kind, cfg.Name, a.name)
					}
					ns[i] = append(ns[i], res.NsPerOp())
				}
			}
			for i := range arms {
				sort.Slice(ns[i], func(x, y int) bool { return ns[i][x] < ns[i][y] })
				sums[i] += ns[i][runs/2]
			}
		}
	}
	for i, a := range arms[1:] {
		ratio := float64(sums[i+1]) / float64(sums[0])
		t.Logf("compiled+%s: %.2fx of compiled-bare", a.name, ratio)
		if ratio > a.bound {
			t.Errorf("compiled+%s costs %.2fx of compiled-bare, over the %.1fx guard", a.name, ratio, a.bound)
		}
	}
}

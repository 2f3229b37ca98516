package dse

import (
	"context"
	"reflect"
	"testing"

	"taco/internal/core"
)

// TestProgressUnderLargestFirstFeed: a large-table sweep is fed largest
// table first, and progress reporting and results do not notice. Done
// counts 1..Total, every instance is reported exactly once, a single
// worker reports in non-increasing table size, and the Points equal an
// input-order evaluation through one shared cache.
func TestProgressUnderLargestFirstFeed(t *testing.T) {
	cons, sim := core.PaperConstraints(), testSim()
	insts := LargeTableInstances(nil, []int{500, 5000, 2000}, 50, cons, sim)
	var cache core.SweepCache
	want := make([]Point, len(insts))
	size := map[string]int{}
	for i, inst := range insts {
		m, err := cache.EvaluateScaled(inst.Cfg, *inst.Scale, inst.Cons, inst.Sim)
		if err != nil {
			t.Fatalf("%s: %v", inst.Label, err)
		}
		want[i] = Point{X: inst.X, Metrics: m}
		size[inst.Label] = inst.Scale.Entries
	}
	for _, workers := range []int{1, 2} {
		var reports []ProgressReport
		ctx := WithProgress(context.Background(), func(r ProgressReport) { reports = append(reports, r) })
		pts, err := Sweep(ctx, insts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != len(insts) {
			t.Fatalf("workers %d: %d progress reports for %d instances", workers, len(reports), len(insts))
		}
		seen := map[string]int{}
		for i, r := range reports {
			if r.Done != i+1 || r.Total != len(insts) {
				t.Errorf("workers %d: report %d says %d/%d", workers, i, r.Done, r.Total)
			}
			seen[r.Label]++
			if workers == 1 && i > 0 && size[r.Label] > size[reports[i-1].Label] {
				t.Errorf("workers 1: %s reported after the smaller %s", r.Label, reports[i-1].Label)
			}
		}
		for _, inst := range insts {
			if seen[inst.Label] != 1 {
				t.Errorf("workers %d: %s reported %d times", workers, inst.Label, seen[inst.Label])
			}
		}
		if !reflect.DeepEqual(pts, want) {
			t.Errorf("workers %d: sweep points differ from the input-order evaluation", workers)
		}
	}
}

package dse

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"taco/internal/core"
	"taco/internal/rtable"
)

// TestProgressUnderLargestFirstFeed: a large-table sweep is fed its
// route sets first and then its instances ready-first, and progress
// reporting and results do not notice. Done counts 1..Total, every
// instance is reported exactly once, and the Points equal an
// input-order evaluation through one shared cache. A single worker
// reports in feed order: the instances that read no route set (analytic
// kinds with no churn stream) largest table first, then the rest by
// route set smallest first.
func TestProgressUnderLargestFirstFeed(t *testing.T) {
	cons, sim := core.PaperConstraints(), testSim()
	for _, churn := range []int{0, 50} {
		insts := LargeTableInstances(nil, []int{500, 5000, 2000}, churn, cons, sim)
		var cache core.SweepCache
		want := make([]Point, len(insts))
		rank := map[string]int{} // feed position class: larger is fed later
		for i, inst := range insts {
			m, err := cache.EvaluateScaled(inst.Cfg, *inst.Scale, inst.Cons, inst.Sim)
			if err != nil {
				t.Fatalf("%s: %v", inst.Label, err)
			}
			want[i] = Point{X: inst.X, Metrics: m}
			rank[inst.Label] = -inst.Scale.Entries
			if rtable.Backends[inst.Scale.Kind].AnalyticProbes == nil || churn > 0 {
				rank[inst.Label] = inst.Scale.Entries
			}
		}
		for _, workers := range []int{1, 2} {
			var reports []ProgressReport
			ctx := WithProgress(context.Background(), func(r ProgressReport) { reports = append(reports, r) })
			pts, err := Sweep(ctx, insts, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) != len(insts) {
				t.Fatalf("churn %d, workers %d: %d progress reports for %d instances", churn, workers, len(reports), len(insts))
			}
			seen := map[string]int{}
			for i, r := range reports {
				if r.Done != i+1 || r.Total != len(insts) {
					t.Errorf("churn %d, workers %d: report %d says %d/%d", churn, workers, i, r.Done, r.Total)
				}
				seen[r.Label]++
				if workers == 1 && i > 0 && rank[r.Label] < rank[reports[i-1].Label] {
					t.Errorf("churn %d, workers 1: %s reported after %s", churn, r.Label, reports[i-1].Label)
				}
			}
			for _, inst := range insts {
				if seen[inst.Label] != 1 {
					t.Errorf("churn %d, workers %d: %s reported %d times", churn, workers, inst.Label, seen[inst.Label])
				}
			}
			if !reflect.DeepEqual(pts, want) {
				t.Errorf("churn %d, workers %d: sweep points differ from the input-order evaluation", churn, workers)
			}
		}
	}
}

// TestRouteSetJobsAreSilent: a route set computed as a job of its own
// yields no Point and no progress report, and cancelling the context
// while one runs returns the context's error once it ends, with no
// instance evaluated after it.
func TestRouteSetJobsAreSilent(t *testing.T) {
	cons, sim := core.PaperConstraints(), testSim()
	insts := LargeTableInstances([]rtable.Kind{rtable.Sequential, rtable.BalancedTree}, []int{300, 1000}, 0, cons, sim)
	reports := 0
	ctx := WithProgress(context.Background(), func(ProgressReport) { reports++ })
	pts, err := Sweep(ctx, insts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(insts) || reports != len(insts) {
		t.Fatalf("%d instances (two route sets): %d points, %d reports", len(insts), len(pts), reports)
	}
	for i, p := range pts {
		if p.X != insts[i].X || p.Metrics.Kind != insts[i].Cfg.Table || p.Err != "" {
			t.Errorf("point %d is %v/%g (%q), instance %s", i, p.Metrics.Kind, p.X, p.Err, insts[i].Label)
		}
	}

	// One worker: the feed waits on the 2·10⁵-route set's job (tens of
	// milliseconds) when the context is cancelled, so the instance
	// behind it is never fed.
	big := LargeTableInstances([]rtable.Kind{rtable.BalancedTree}, []int{200_000}, 0, cons, sim)
	ctx, cancel := context.WithCancel(WithProgress(context.Background(), func(ProgressReport) { reports++ }))
	reports = 0
	time.AfterFunc(5*time.Millisecond, cancel)
	if _, err := Sweep(ctx, big, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled during the route-set job: err %v, want %v", err, context.Canceled)
	}
	if reports != 0 {
		t.Errorf("cancelled during the route-set job: %d reports", reports)
	}
}

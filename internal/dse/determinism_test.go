package dse

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"taco/internal/core"
	"taco/internal/rtable"
)

// determinismInstances is a mixed grid large enough that an 8-worker
// pool actually interleaves completions: every Table 1 cell plus a bus
// sweep per implementation.
func determinismInstances() []Instance {
	cons := core.PaperConstraints()
	sim := testSim()
	insts := Table1Instances(cons, sim)
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		insts = append(insts, BusInstances(kind, 4, cons, sim)...)
	}
	return insts
}

// TestSweepDeterminism is the parallel-engine contract: the exported
// CSV from workers=1 and workers=8 must be byte-identical, so
// parallelism can never reorder or corrupt Table 1 data.
func TestSweepDeterminism(t *testing.T) {
	insts := determinismInstances()

	export := func(workers int) []byte {
		pts, err := Sweep(context.Background(), insts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, pts); err != nil {
			t.Fatalf("workers=%d: export: %v", workers, err)
		}
		return buf.Bytes()
	}

	serial := export(1)
	parallel := export(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("workers=1 and workers=8 exports differ:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			serial, parallel)
	}
}

// TestExploreDeterminism pins the parallel Explore to the sequential
// scan: Ranked order and Best must not depend on the worker count.
func TestExploreDeterminism(t *testing.T) {
	cons := core.PaperConstraints()
	sim := testSim()

	serial, err := ExploreCtx(context.Background(), cons, sim, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ExploreCtx(context.Background(), cons, sim, 3, 2, 8)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial.Ranked) != len(parallel.Ranked) {
		t.Fatalf("ranked lengths differ: %d vs %d", len(serial.Ranked), len(parallel.Ranked))
	}
	for i := range serial.Ranked {
		a, b := serial.Ranked[i], parallel.Ranked[i]
		if a.Score != b.Score || a.Metrics.Config.Name != b.Metrics.Config.Name ||
			a.Metrics.Kind != b.Metrics.Kind ||
			a.Metrics.CyclesPerPacket != b.Metrics.CyclesPerPacket {
			t.Fatalf("rank %d differs: workers=1 %v/%s score=%v, workers=8 %v/%s score=%v",
				i, a.Metrics.Kind, a.Metrics.Config.Name, a.Score,
				b.Metrics.Kind, b.Metrics.Config.Name, b.Score)
		}
	}
	if serial.OK != parallel.OK || serial.Best.Metrics.Config.Name != parallel.Best.Metrics.Config.Name {
		t.Fatalf("best differs: workers=1 %v (ok=%t), workers=8 %v (ok=%t)",
			serial.Best.Metrics.Config.Name, serial.OK,
			parallel.Best.Metrics.Config.Name, parallel.OK)
	}
}

// TestSweepCancellation checks a cancelled context aborts the sweep with
// the context's error instead of hanging or returning partial data.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := Sweep(ctx, determinismInstances(), 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pts != nil {
		t.Fatalf("cancelled sweep returned %d points, want none", len(pts))
	}
}

// TestSweepParallelSpeedup checks the acceptance criterion that a
// GOMAXPROCS-worker sweep beats workers=1 by ≥2× wall-clock. It needs
// real parallel hardware, so it skips below 4 CPUs and under -short.
func TestSweepParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping wall-clock comparison in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >=4 CPUs for a meaningful speedup bound, have %d", runtime.NumCPU())
	}
	insts := determinismInstances()
	timeRun := func(workers int) time.Duration {
		start := time.Now()
		if _, err := Sweep(context.Background(), insts, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return time.Since(start)
	}
	timeRun(1) // warm up
	serial := timeRun(1)
	parallel := timeRun(runtime.GOMAXPROCS(0))
	if speedup := serial.Seconds() / parallel.Seconds(); speedup < 2 {
		t.Errorf("parallel sweep speedup %.2fx (serial %v, parallel %v), want >=2x",
			speedup, serial, parallel)
	}
}

// TestSweepLargeTableDeterminism extends the contract to the
// large-database axis: the scaled evaluator's JSON export must be
// byte-identical between workers=1 and workers=8 (the tacoexplore
// acceptance criterion), including the ScaleModel and TableMem blocks.
func TestSweepLargeTableDeterminism(t *testing.T) {
	cons := core.PaperConstraints()
	sim := testSim()
	insts := LargeTableInstances(nil, []int{500, 2000, 10000}, 100, cons, sim)

	export := func(workers int) []byte {
		pts, err := Sweep(context.Background(), insts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, pts); err != nil {
			t.Fatalf("workers=%d: export: %v", workers, err)
		}
		return buf.Bytes()
	}

	serial := export(1)
	parallel := export(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("large-table sweep: workers=1 and workers=8 JSON differ")
	}
	for i, p := range exportPoints(t, insts) {
		m := p.Metrics
		if m.ScaleModel == nil || m.TableMem == nil || m.AvgProbesPerPacket <= 0 {
			t.Fatalf("point %d (%s): scaled fields missing: %+v", i, insts[i].Label, m)
		}
	}
}

// exportPoints runs the sweep once more on the default worker count and
// returns the points for field inspection.
func exportPoints(t *testing.T, insts []Instance) []Point {
	t.Helper()
	pts, err := Sweep(context.Background(), insts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

package dse

import (
	"bytes"
	"context"
	"testing"

	"taco/internal/core"
)

// table1Export sweeps the nine Table 1 cells with the given SimOptions
// and worker count and returns the JSON export bytes.
func table1Export(t *testing.T, sim core.SimOptions, workers int) []byte {
	t.Helper()
	cons := core.PaperConstraints()
	ms, err := Table1(context.Background(), cons, sim, workers)
	if err != nil {
		t.Fatalf("compiled=%t workers=%d: %v", sim.Compiled, workers, err)
	}
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, ms); err != nil {
		t.Fatalf("compiled=%t workers=%d: export: %v", sim.Compiled, workers, err)
	}
	return buf.Bytes()
}

// TestCompiledTable1Determinism is the compiled fast path's engine-level
// contract: the Table 1 JSON export must be byte-identical between the
// interpreter and the compiled path, for any worker count. (The
// SimOptions.Compiled flag itself is json-omitempty, so the exports are
// comparable byte-for-byte.)
func TestCompiledTable1Determinism(t *testing.T) {
	interp := testSim()
	compiled := interp
	compiled.Compiled = true

	ref := table1Export(t, interp, 1)
	for _, workers := range []int{1, 8} {
		got := table1Export(t, compiled, workers)
		if !bytes.Equal(ref, got) {
			t.Fatalf("compiled export (workers=%d) differs from interpreted export:\n--- interpreted ---\n%s\n--- compiled ---\n%s",
				workers, ref, got)
		}
	}
}

// TestReplayInterpreted exercises the sweep oracle: a compiled Table 1
// evaluation must pass a full-stride interpreter replay, and a doctored
// result must be caught and attributed to its instance.
func TestReplayInterpreted(t *testing.T) {
	cons := core.PaperConstraints()
	sim := testSim()
	sim.Compiled = true
	ctx := context.Background()

	insts := Table1Instances(cons, sim)
	ms, err := Table1(ctx, cons, sim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayInterpreted(ctx, insts, ms, 1, 0); err != nil {
		t.Fatalf("replay of a faithful compiled sweep failed: %v", err)
	}

	bad := append([]core.Metrics(nil), ms...)
	bad[4].CyclesPerPacket++
	err = ReplayInterpreted(ctx, insts, bad, 1, 0)
	if err == nil {
		t.Fatal("replay accepted a doctored result")
	}
	if want := insts[4].Label; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("divergence error %q does not name instance %q", err, want)
	}
}

// TestExploreCompiledOracle checks ExploreCtx's built-in finalist
// verification completes cleanly on a compiled grid and agrees with the
// interpreted exploration.
func TestExploreCompiledOracle(t *testing.T) {
	cons := core.PaperConstraints()
	sim := testSim()

	interp, err := ExploreCtx(context.Background(), cons, sim, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Compiled = true
	comp, err := ExploreCtx(context.Background(), cons, sim, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if interp.OK != comp.OK || interp.Best.Metrics.Config.Name != comp.Best.Metrics.Config.Name ||
		interp.Best.Metrics.Kind != comp.Best.Metrics.Kind {
		t.Fatalf("explore verdicts differ: interpreted best %v/%s (ok=%t), compiled best %v/%s (ok=%t)",
			interp.Best.Metrics.Kind, interp.Best.Metrics.Config.Name, interp.OK,
			comp.Best.Metrics.Kind, comp.Best.Metrics.Config.Name, comp.OK)
	}
}

// TestFastObsTable1MatchesInterpreter is the interpreter reference for
// the benchmark's table1-fast-obs workload: the nine Table 1 cells at
// 512 packets on the compiled path with counters and the flight
// recorder armed must equal, row for row and field for field, the same
// instances replayed on the interpreter.
func TestFastObsTable1MatchesInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates nine cells at 512 packets on both step paths")
	}
	cons := core.PaperConstraints()
	sim := core.DefaultSimOptions()
	sim.Packets = 512
	sim.Observe = true
	sim.ForensicsDir = t.TempDir()
	if !sim.Compiled {
		t.Fatal("DefaultSimOptions is not on the compiled path")
	}
	ctx := context.Background()
	ms, err := Table1(ctx, cons, sim, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim
	ref.Compiled = false
	if err := ReplayInterpreted(ctx, Table1Instances(cons, ref), ms, 1, 0); err != nil {
		t.Fatal(err)
	}
}

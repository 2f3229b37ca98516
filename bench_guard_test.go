// Benchmark regression guard: bench_snapshot.txt records the repo's
// reference benchmark run, and cycles/packet for the nine Table 1 cells
// is the paper's ground truth — host-speed optimisation must never move
// it. This test re-simulates every cell and fails if the result drifts
// from the snapshot at the snapshot's printed precision.
package taco_test

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"taco/internal/core"
	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/program"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// snapshotMetrics is the recorded (cycles/packet, busUtil%) pair of one
// benchmark line, kept as the literal printed tokens so live values can
// be compared at exactly the snapshot's precision.
type snapshotMetrics struct {
	cycles, busUtil string
}

// parseSnapshot extracts the named metrics from bench_snapshot.txt,
// keyed by benchmark name with any -GOMAXPROCS suffix stripped.
func parseSnapshot(t *testing.T) map[string]snapshotMetrics {
	t.Helper()
	f, err := os.Open("bench_snapshot.txt")
	if err != nil {
		t.Fatalf("bench_snapshot.txt missing: %v", err)
	}
	defer f.Close()
	out := map[string]snapshotMetrics{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; value/unit pairs follow.
		var m snapshotMetrics
		for i := 2; i+1 < len(fields); i += 2 {
			switch fields[i+1] {
			case "cycles/packet":
				m.cycles = fields[i]
			case "busUtil%":
				m.busUtil = fields[i]
			}
		}
		if m.cycles != "" {
			out[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// formatLike renders v with the same number of decimal places as the
// snapshot token, so comparison happens at the precision the snapshot
// actually recorded.
func formatLike(v float64, token string) string {
	decimals := 0
	if i := strings.IndexByte(token, '.'); i >= 0 {
		decimals = len(token) - i - 1
	}
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// simulateCell runs the exact BenchmarkTable1 batch for one cell —
// through the compiled fast path when compiled is set — and returns
// (cycles/packet, busUtil%).
func simulateCell(t *testing.T, kind rtable.Kind, cfg fu.Config, compiled bool) (float64, float64) {
	t.Helper()
	const packets = 32
	tbl, pkts := benchWorkload(t, kind, 100, packets)
	tr, err := router.NewTACO(cfg, tbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if compiled {
		if err := tr.UseCompiled(); err != nil {
			t.Fatal(err)
		}
	}
	for j, p := range pkts {
		tr.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq})
	}
	if err := tr.Run(packets, 20_000_000); err != nil {
		t.Fatal(err)
	}
	return tr.CyclesPerPacket(), tr.Machine.Stats().BusUtilization() * 100
}

// TestBenchSnapshotCycles locks the nine Table 1 cells to the snapshot,
// on both step paths: the compiled fast path must reproduce the same
// recorded cycle counts as the interpreter it specializes.
func TestBenchSnapshotCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot guard re-simulates all nine Table 1 cells")
	}
	snap := parseSnapshot(t)
	for _, mode := range []struct {
		name     string
		compiled bool
	}{{"interpreted", false}, {"compiled", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			cells := 0
			for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
				for _, cfg := range fu.PaperConfigs(kind) {
					name := fmt.Sprintf("BenchmarkTable1/%s/%s", kind, cfg.Name)
					rec, ok := snap[name]
					if !ok {
						t.Errorf("%s: not recorded in bench_snapshot.txt", name)
						continue
					}
					cells++
					cycles, busUtil := simulateCell(t, kind, cfg, mode.compiled)
					if got := formatLike(cycles, rec.cycles); got != rec.cycles {
						t.Errorf("%s: cycles/packet drifted: simulated %s, snapshot %s",
							name, got, rec.cycles)
					}
					if got := formatLike(busUtil, rec.busUtil); got != rec.busUtil {
						t.Errorf("%s: busUtil%% drifted: simulated %s, snapshot %s",
							name, got, rec.busUtil)
					}
				}
			}
			if cells != 9 {
				t.Errorf("guarded %d Table 1 cells, want 9", cells)
			}
		})
	}
}

// TestScaledAnchorsMatchTable1 extends the guard to the scaling
// methodology: EvaluateScaled's cycle-accurate anchor runs (compiled,
// the default) must be bit-identical to a direct Evaluate of the same
// instance on the reference interpreter, proving the model-based path
// reuses the untouched paper-scale flow (and therefore cannot drift
// Table 1). Exact float equality is intentional.
func TestScaledAnchorsMatchTable1(t *testing.T) {
	cons := core.PaperConstraints()
	sim := core.DefaultSimOptions()
	ref := sim
	ref.Compiled = false
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		cfg := fu.Config1Bus1FU(kind)
		spec := core.ScaleSpec{Kind: kind, Entries: cons.TableEntries}
		sm, err := core.EvaluateScaled(cfg, spec, cons, sim)
		if err != nil {
			t.Fatalf("%v: EvaluateScaled: %v", kind, err)
		}
		if sm.ScaleModel == nil {
			t.Fatalf("%v: no ScaleModel recorded", kind)
		}
		for i, n := range sm.ScaleModel.AnchorEntries {
			aCons := cons
			aCons.TableEntries = n
			dm, err := core.Evaluate(cfg, aCons, ref)
			if err != nil {
				t.Fatalf("%v: Evaluate at %d entries: %v", kind, n, err)
			}
			if got, want := sm.ScaleModel.AnchorCycles[i], dm.CyclesPerPacket; got != want {
				t.Errorf("%v: anchor %d entries: scaled model saw %v cycles/packet, direct evaluation %v",
					kind, n, got, want)
			}
			wantProbes := float64(dm.RTULoads) / float64(dm.PacketsRun)
			if got := sm.ScaleModel.AnchorProbes[i]; got != wantProbes {
				t.Errorf("%v: anchor %d entries: scaled model saw %v probes/packet, hardware counters %v",
					kind, n, got, wantProbes)
			}
		}
	}
}

// TestScaledAnchorsModelledKinds extends the anchor guard to the kinds
// without a hardware RTU — tiled-TCAM and compressed (and the earlier
// multibit/trie) borrow the balanced tree's cycle-accurate anchors and
// rescale the slope by the documented kernel factor. The anchors must
// still be bit-identical to a direct interpreted Evaluate of the donor
// instance, and the rescaled slope must be exactly factor × the tree
// slope.
func TestScaledAnchorsModelledKinds(t *testing.T) {
	cons := core.PaperConstraints()
	sim := core.DefaultSimOptions()
	ref := sim
	ref.Compiled = false
	for _, kind := range []rtable.Kind{rtable.TiledTCAM, rtable.Compressed, rtable.Multibit, rtable.Trie} {
		cfg := fu.Config1Bus1FU(kind)
		spec := core.ScaleSpec{Kind: kind, Entries: 2000}
		sm, err := core.EvaluateScaled(cfg, spec, cons, sim)
		if err != nil {
			t.Fatalf("%v: EvaluateScaled: %v", kind, err)
		}
		model := sm.ScaleModel
		if model == nil {
			t.Fatalf("%v: no ScaleModel recorded", kind)
		}
		if !model.Modelled || model.DonorKind != rtable.BalancedTree {
			t.Fatalf("%v: expected modelled balanced-tree anchors, got donor %v modelled %v",
				kind, model.DonorKind, model.Modelled)
		}
		donorCfg := cfg
		donorCfg.Table = rtable.BalancedTree
		for i, n := range model.AnchorEntries {
			aCons := cons
			aCons.TableEntries = n
			dm, err := core.Evaluate(donorCfg, aCons, ref)
			if err != nil {
				t.Fatalf("%v: donor Evaluate at %d entries: %v", kind, n, err)
			}
			if got, want := model.AnchorCycles[i], dm.CyclesPerPacket; got != want {
				t.Errorf("%v: anchor %d entries: scaled model saw %v cycles/packet, direct donor %v",
					kind, n, got, want)
			}
		}
		treeSlope := (model.AnchorCycles[1] - model.AnchorCycles[0]) /
			(model.AnchorProbes[1] - model.AnchorProbes[0])
		want, ok := program.ModelPerProbe(kind, treeSlope)
		if !ok {
			t.Fatalf("%v: program.ModelPerProbe has no factor", kind)
		}
		if model.PerProbeCycles != want {
			t.Errorf("%v: PerProbeCycles = %v, want factor-rescaled tree slope %v",
				kind, model.PerProbeCycles, want)
		}
	}
}

// TestScaledProbesMatchHistogram re-derives the probes(n) the scaled
// cycle model charged from the backends' own probe histograms: an
// identical table built under the identical seeded workload must
// reproduce Metrics.AvgProbesPerPacket exactly from its histogram sum
// — and for the tiled TCAM, the index/tile probe split must account
// for every charged probe with exactly one block activation per
// lookup. A drift here means the model is billing cycles for probes
// the organisation does not perform.
func TestScaledProbesMatchHistogram(t *testing.T) {
	cons := core.PaperConstraints()
	sim := core.DefaultSimOptions()
	const entries = 5000
	routes := workload.GenerateLargeRoutes(workload.LargeTableSpec{
		Entries: entries, Ifaces: sim.Ifaces, Seed: sim.Seed,
	})
	dests := workload.SampleDests(routes, core.DefaultSampleLookups, sim.MissRatio, sim.Seed)

	for _, kind := range []rtable.Kind{rtable.TiledTCAM, rtable.Compressed} {
		m, err := core.EvaluateScaled(fu.Config1Bus1FU(kind),
			core.ScaleSpec{Kind: kind, Entries: entries}, cons, sim)
		if err != nil {
			t.Fatalf("%v: EvaluateScaled: %v", kind, err)
		}
		tbl := rtable.New(kind)
		if err := rtable.InsertAll(tbl, routes); err != nil {
			t.Fatalf("%v: build: %v", kind, err)
		}
		tbl.ResetStats()
		for _, dst := range dests {
			tbl.Lookup(dst)
		}
		st := tbl.Stats()

		var histSum int64
		switch tt := tbl.(type) {
		case *rtable.TiledTCAMTable:
			for _, c := range tt.DepthProbes() {
				histSum += c
			}
			if tt.TileProbes() != st.Lookups {
				t.Errorf("tiled-tcam: %d block activations for %d lookups, want exactly one each",
					tt.TileProbes(), st.Lookups)
			}
			if tt.IndexProbes()+tt.TileProbes() != st.Probes {
				t.Errorf("tiled-tcam: index %d + tile %d probes != charged %d",
					tt.IndexProbes(), tt.TileProbes(), st.Probes)
			}
		case *rtable.CompressedTable:
			for _, c := range tt.LevelProbes() {
				histSum += c
			}
		}
		if histSum != st.Probes {
			t.Errorf("%v: histogram sums to %d, Stats.Probes %d", kind, histSum, st.Probes)
		}
		if got := float64(histSum) / float64(st.Lookups); got != m.AvgProbesPerPacket {
			t.Errorf("%v: histogram-derived probes %v, cycle model charged %v",
				kind, got, m.AvgProbesPerPacket)
		}
	}
}

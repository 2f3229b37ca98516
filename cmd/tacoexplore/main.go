// Command tacoexplore runs the design-space exploration of the paper's
// §4 and prints its results, headlined by the Table 1 regeneration.
//
// Usage:
//
//	tacoexplore -table1                 regenerate Table 1
//	tacoexplore -campower               the CAM power-parity analysis
//	tacoexplore -auto                   automated exploration (future work)
//	tacoexplore -sweep tablesize        entries ∈ {10..1000} scaling
//	tacoexplore -sweep buses            1..4 buses
//	tacoexplore -sweep packetsize       64..1500 B datagrams
//	tacoexplore -sweep replication      1..3 replicated CNT/CMP/M
//	tacoexplore -sweep largetable       kind × size up to 10⁶ routes
//	                                    (model-based; see EXPERIMENTS.md)
//
// The large-table sweep takes -table-kind (comma-separated kind names or
// aliases, default every large-sweep backend; trie is the one left out)
// and -table-size (comma-separated entry counts), plus -churn to play an
// update stream into each table first.
//
// Common flags: -packets, -entries, -seed, -workers, -json (structured
// metrics with per-FU counters on stdout), -interp (simulate through
// the reference interpreter instead of the compiled fast path, which
// otherwise runs and has its Table 1 results spot-checked against the
// interpreter), -progress (live engine progress with a running p99 of
// per-instance evaluation time on stderr), -hist (merged latency
// histogram summary on stderr), -metrics-out (aggregated Prometheus
// text exposition), -cpuprofile/-memprofile.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"taco/internal/cliutil"
	"taco/internal/core"
	"taco/internal/dse"
	"taco/internal/estimate"
	"taco/internal/fu"
	"taco/internal/obs"
	"taco/internal/rtable"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "regenerate the paper's Table 1")
		campower = flag.Bool("campower", false, "CAM power-parity analysis (paper §4)")
		auto     = flag.Bool("auto", false, "automated design-space exploration")
		sweep    = flag.String("sweep", "", "sweep: tablesize | buses | packetsize | replication | largetable")
		packets  = flag.Int("packets", 64, "datagrams to simulate per instance")
		entries  = flag.Int("entries", 100, "routing-table entries")
		seed     = flag.Uint64("seed", 2003, "workload seed")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0),
			"parallel simulation workers (results are identical for any value)")
		jsonOut = flag.Bool("json", false, "emit per-instance metrics (with counters) as JSON on stdout")
		interp  = flag.Bool("interp", false,
			"simulate through the reference interpreter instead of the compiled fast path (bit-identical, several times slower; compiled Table 1 runs are spot-checked against it)")
		progress   = flag.Bool("progress", false, "report live engine progress on stderr")
		hist       = flag.Bool("hist", false, "print the merged per-packet latency histogram summary on stderr")
		metricsOut = flag.String("metrics-out", "",
			"write the run's aggregated Prometheus text exposition to this file")
		tableKind = flag.String("table-kind", strings.Join(rtable.Names(dse.LargeTableKinds), ","),
			"largetable sweep: comma-separated table kinds")
		tableSize = flag.String("table-size", "10000,100000,1000000",
			"largetable sweep: comma-separated entry counts")
		churn = flag.Int("churn", 0,
			"largetable sweep: update-churn operations applied before measurement")
		forensicsOut = flag.String("forensics-out", "",
			"write a forensic bundle (replayable with tacoreplay) for every failed instance into this directory")
		timing = flag.Bool("timing", false,
			"stamp per-instance wall times (wall_ns) onto exported points; makes exports nondeterministic")
	)
	var prof cliutil.Profiling
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	cons := core.PaperConstraints()
	cons.TableEntries = *entries
	sim := core.DefaultSimOptions()
	sim.Packets = *packets
	sim.Seed = *seed
	// The JSON export is the consumer of the fine-grained counters, so
	// -json switches them on for every simulated instance.
	sim.Observe = *jsonOut
	// The compiled path composes with everything: counters are recorded
	// natively by the fast path, so -json keeps the compiled speedup.
	// -interp is the escape hatch onto the reference interpreter.
	sim.Compiled = !*interp
	// -forensics-out arms the flight recorder on every instance and turns
	// each failure into a self-contained repro bundle.
	sim.ForensicsDir = *forensicsOut

	ctx := context.Background()
	if *progress {
		ctx = dse.WithProgress(ctx, dse.ProgressPrinter(os.Stderr))
	}
	if *timing {
		ctx = dse.WithTiming(ctx)
	}

	if !*table1 && !*campower && !*auto && *sweep == "" {
		*table1 = true // default action
	}

	exp := obsExport{hist: *hist, metricsOut: *metricsOut}

	if *table1 {
		if err := runTable1(ctx, cons, sim, *workers, *jsonOut, exp); err != nil {
			fatal(err)
		}
	}
	if *campower {
		if err := runCAMPower(ctx, cons, sim, *workers); err != nil {
			fatal(err)
		}
	}
	if *auto {
		if err := runAuto(ctx, cons, sim, *workers, *jsonOut, exp); err != nil {
			fatal(err)
		}
	}
	if *sweep != "" {
		lt := largeOpts{kinds: *tableKind, sizes: *tableSize, churn: *churn}
		if err := runSweep(ctx, *sweep, cons, sim, *workers, *jsonOut, lt, exp); err != nil {
			fatal(err)
		}
	}
}

// obsExport carries the -hist/-metrics-out requests to whichever action
// ran, which hands its evaluated instances to emit.
type obsExport struct {
	hist       bool
	metricsOut string
}

// emit renders the merged latency summary (stderr) and/or the aggregated
// Prometheus exposition (file) over the run's evaluated instances.
func (e obsExport) emit(source string, ms []core.Metrics) error {
	if e.hist {
		h := &obs.LatencyHist{}
		for _, m := range ms {
			h.Merge(m.LatencyHist)
		}
		p := h.Percentiles()
		fmt.Fprintf(os.Stderr,
			"tacoexplore: latency over %d packets (%d instances): p50 %d, p90 %d, p99 %d, p99.9 %d cycles\n",
			h.Count(), len(ms), p.P50, p.P90, p.P99, p.P999)
	}
	if e.metricsOut != "" {
		f, err := os.Create(e.metricsOut)
		if err != nil {
			return err
		}
		snap := dse.PromSnapshot(map[string]string{"source": source}, ms)
		if err := obs.WriteProm(f, snap); err != nil {
			f.Close()
			return fmt.Errorf("metrics-out: %w", err)
		}
		return f.Close()
	}
	return nil
}

// largeOpts carries the raw -table-kind/-table-size/-churn flags into
// the largetable sweep.
type largeOpts struct {
	kinds string
	sizes string
	churn int
}

// failedPoint prints a failed sweep point's error in place of its
// metrics row (graceful degradation: the rest of the sweep is valid).
func failedPoint(p dse.Point) bool {
	if p.Err == "" {
		return false
	}
	if p.Bundle != "" {
		fmt.Printf("  %g: FAILED — %s (bundle: %s)\n", p.X, p.Err, p.Bundle)
	} else {
		fmt.Printf("  %g: FAILED — %s\n", p.X, p.Err)
	}
	return true
}

// cyclesCell formats one table-size cell, marking failed points.
func cyclesCell(p dse.Point) string {
	if p.Err != "" {
		return "FAILED"
	}
	return fmt.Sprintf("%.0f", p.Metrics.CyclesPerPacket)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tacoexplore:", err)
	os.Exit(1)
}

func runTable1(ctx context.Context, cons core.Constraints, sim core.SimOptions, workers int, jsonOut bool, exp obsExport) error {
	if !jsonOut {
		fmt.Printf("Table 1 — estimated minimum clock frequencies, areas and power\n")
		fmt.Printf("constraint: %.0f Gbps, %d-byte datagrams (%.2f Mpps), %d-entry table, %s\n\n",
			cons.ThroughputBps/1e9, cons.PacketBytes, cons.PacketRate()/1e6,
			cons.TableEntries, cons.Tech.Name)
	}
	ms, err := dse.Table1(ctx, cons, sim, workers)
	if err != nil {
		return err
	}
	if sim.Compiled {
		// Spot-check the compiled results: replay every third cell with
		// the interpreter and require field-for-field identity. With
		// counters attached (-json) the check also covers the occupancy,
		// utilization and latency fields they derive.
		if err := dse.ReplayInterpreted(ctx, dse.Table1Instances(cons, sim), ms, 3, workers); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "tacoexplore: compiled results spot-checked against the interpreter")
	}
	if err := exp.emit("table1", ms); err != nil {
		return err
	}
	if jsonOut {
		return dse.WriteMetricsJSON(os.Stdout, ms)
	}
	fmt.Print(core.FormatTable1(ms))
	if best, ok := core.SelectBest(ms); ok {
		fmt.Printf("\nselected configuration: %s routing table, %s — %s, %.1f mm², %.2f W\n",
			best.Kind, best.Config.Name, estimate.FormatHz(best.RequiredClockHz),
			best.Est.AreaMM2, best.Est.PowerW)
	}
	return nil
}

func runCAMPower(ctx context.Context, cons core.Constraints, sim core.SimOptions, workers int) error {
	ms, err := dse.Table1(ctx, cons, sim, workers)
	if err != nil {
		return err
	}
	fmt.Println("CAM power parity (paper §4): TACO+CAM total vs TACO-only solutions")
	for _, m := range ms {
		if !m.ClockFeasible {
			continue
		}
		total := m.Est.PowerW + m.CAMChipPowerW
		note := ""
		if m.CAMChipPowerW > 0 {
			note = fmt.Sprintf(" (core %.2f W + CAM chip %.2f W)", m.Est.PowerW, m.CAMChipPowerW)
		}
		fmt.Printf("  %-14s %-18s total %.2f W%s\n", m.Kind, m.Config.Name, total, note)
	}
	return nil
}

func runAuto(ctx context.Context, cons core.Constraints, sim core.SimOptions, workers int, jsonOut bool, exp obsExport) error {
	res, err := dse.ExploreCtx(ctx, cons, sim, 4, 3, workers)
	if err != nil {
		return err
	}
	ranked := make([]core.Metrics, len(res.Ranked))
	for i, c := range res.Ranked {
		ranked[i] = c.Metrics
	}
	if err := exp.emit("auto", ranked); err != nil {
		return err
	}
	if jsonOut {
		fmt.Fprintf(os.Stderr, "tacoexplore: %d instances evaluated, %d pruned\n",
			res.Evaluated, res.Pruned)
		return dse.WriteMetricsJSON(os.Stdout, ranked)
	}
	fmt.Printf("automated exploration: %d instances evaluated, %d pruned\n",
		res.Evaluated, res.Pruned)
	if !res.OK {
		fmt.Println("no configuration satisfies the constraints")
		return nil
	}
	fmt.Println("ranking (best first):")
	for i, c := range res.Ranked {
		if i >= 8 {
			break
		}
		m := c.Metrics
		status := "OK"
		if !m.Acceptable() {
			status = "infeasible"
		}
		fmt.Printf("  %2d. %-14s %-20s %10s  %6.1f mm²  %5.2f W  [%s]\n",
			i+1, m.Kind, m.Config.Name, estimate.FormatHz(m.RequiredClockHz),
			m.Est.AreaMM2, m.Est.PowerW, status)
	}
	return nil
}

func runSweep(ctx context.Context, which string, cons core.Constraints, sim core.SimOptions, workers int, jsonOut bool, lt largeOpts, exp obsExport) error {
	// Every sweep collects its points (all kinds concatenated; each
	// point's Kind/Config identifies it) for the -json array and the
	// -hist/-metrics-out aggregation.
	var jsonPts []dse.Point
	switch which {
	case "tablesize":
		sizes := []int{10, 25, 50, 100, 250, 500, 1000}
		rows := map[rtable.Kind][]dse.Point{}
		for _, kind := range rtable.PaperKinds {
			pts, err := dse.Sweep(ctx, dse.TableSizeInstances(fu.Config1Bus1FU(kind), sizes, cons, sim), workers)
			if err != nil {
				return err
			}
			rows[kind] = pts
			jsonPts = append(jsonPts, pts...)
		}
		if jsonOut {
			break
		}
		fmt.Println("table-size sweep (1BUS/1FU): cycles/packet by implementation")
		fmt.Printf("%8s %12s %12s %12s %12s\n", "entries", "sequential", "tree", "cam", "trie(model)")
		for i, n := range sizes {
			// The trie has no hardware unit; report its probe count as a
			// software model reference.
			fmt.Printf("%8d %12s %12s %12s %12s\n", n,
				cyclesCell(rows[rtable.Sequential][i]),
				cyclesCell(rows[rtable.BalancedTree][i]),
				cyclesCell(rows[rtable.CAM][i]), "-")
		}
	case "buses":
		for _, kind := range rtable.PaperKinds {
			pts, err := dse.Sweep(ctx, dse.BusInstances(kind, 4, cons, sim), workers)
			if err != nil {
				return err
			}
			jsonPts = append(jsonPts, pts...)
			if jsonOut {
				continue
			}
			fmt.Printf("bus sweep, %s:\n", kind)
			for _, p := range pts {
				if failedPoint(p) {
					continue
				}
				fmt.Printf("  %d bus(es): %7.1f cycles/packet, required %s, util %.0f%%\n",
					int(p.X), p.Metrics.CyclesPerPacket,
					estimate.FormatHz(p.Metrics.RequiredClockHz),
					p.Metrics.BusUtilization*100)
			}
		}
	case "packetsize":
		sizes := []int{64, 128, 256, 512, 1024, 1500}
		cfg := fu.Config3Bus1FU(rtable.CAM)
		pts, err := dse.Sweep(ctx, dse.PacketSizeInstances(cfg, sizes, cons, sim), workers)
		if err != nil {
			return err
		}
		jsonPts = append(jsonPts, pts...)
		if jsonOut {
			break
		}
		fmt.Printf("packet-size sweep (%s, CAM):\n", cfg.Name)
		for _, p := range pts {
			if failedPoint(p) {
				continue
			}
			fmt.Printf("  %5d B: %6.1f cycles/packet, required %s\n",
				int(p.X), p.Metrics.CyclesPerPacket,
				estimate.FormatHz(p.Metrics.RequiredClockHz))
		}
	case "replication":
		for _, kind := range rtable.PaperKinds {
			pts, err := dse.Sweep(ctx, dse.ReplicationInstances(kind, 3, cons, sim), workers)
			if err != nil {
				return err
			}
			jsonPts = append(jsonPts, pts...)
			if jsonOut {
				continue
			}
			fmt.Printf("replication sweep, %s (3 buses):\n", kind)
			for _, p := range pts {
				if failedPoint(p) {
					continue
				}
				fmt.Printf("  %dx CNT/CMP/M: %7.1f cycles/packet, required %s, %.1f mm², %.2f W\n",
					int(p.X), p.Metrics.CyclesPerPacket,
					estimate.FormatHz(p.Metrics.RequiredClockHz),
					p.Metrics.Est.AreaMM2, p.Metrics.Est.PowerW)
			}
		}
	case "largetable":
		kinds, err := cliutil.KindsByNames(lt.kinds)
		if err != nil {
			return err
		}
		sizes, err := cliutil.ParseSizes(lt.sizes)
		if err != nil {
			return err
		}
		// The scaled evaluator has no simulated machine to observe; keep
		// the anchors' counters off so anchor results match -table1 runs.
		ltSim := sim
		ltSim.Observe = false
		pts, err := dse.Sweep(ctx, dse.LargeTableInstances(kinds, sizes, lt.churn, cons, ltSim), workers)
		if err != nil {
			return err
		}
		jsonPts = append(jsonPts, pts...)
		if jsonOut {
			break
		}
		fmt.Println("large-table sweep (1BUS/1FU, model-based: anchored cycles + measured probes + table SRAM):")
		fmt.Printf("%-13s %9s %12s %9s %12s %10s %9s %9s %14s  %s\n",
			"kind", "entries", "cycles/pkt", "probes", "req clock", "area mm²", "power W", "cam W", "table mem", "verdict")
		for _, p := range pts {
			if failedPoint(p) {
				continue
			}
			m := p.Metrics
			verdict := "OK"
			switch {
			case !m.ClockFeasible:
				verdict = "NA (clock)"
			case !m.MeetsArea:
				verdict = "area"
			case !m.MeetsPower:
				verdict = "power"
			}
			mem := "-"
			if m.TableMem != nil {
				mem = estimate.FormatBits(m.TableMem.Bits)
				if m.TableMem.CAMChips > 0 {
					// Ternary kinds: external chips carry the cells; the
					// on-chip bits (next-hop/index SRAM) ride along.
					mem = fmt.Sprintf("%d chip(s)+%s", m.TableMem.CAMChips, mem)
				}
			}
			camW := "-"
			if m.CAMChipPowerW > 0 {
				camW = fmt.Sprintf("%.2f", m.CAMChipPowerW)
			}
			fmt.Printf("%-13s %9d %12.1f %9.1f %12s %10.1f %9.2f %9s %14s  %s\n",
				m.Kind, m.TableEntries, m.CyclesPerPacket, m.AvgProbesPerPacket,
				estimate.FormatHz(m.RequiredClockHz), m.Est.AreaMM2, m.Est.PowerW,
				camW, mem, verdict)
		}
	default:
		return fmt.Errorf("unknown sweep %q", which)
	}
	ok := make([]core.Metrics, 0, len(jsonPts))
	for _, p := range jsonPts {
		if p.Err == "" {
			ok = append(ok, p.Metrics)
		}
	}
	if err := exp.emit("sweep-"+which, ok); err != nil {
		return err
	}
	if jsonOut {
		return dse.WriteJSON(os.Stdout, jsonPts)
	}
	return nil
}

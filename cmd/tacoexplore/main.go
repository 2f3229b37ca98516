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
// Compiled Table 1 results are spot-checked against the reference
// interpreter, which -interp runs instead. -json prints per-instance
// metrics with per-FU counters, -hist a merged latency summary on
// stderr, and -metrics-out the aggregated Prometheus exposition.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"taco/internal/cliutil"
	"taco/internal/core"
	"taco/internal/dse"
	"taco/internal/estimate"
	"taco/internal/fu"
	"taco/internal/obs"
	"taco/internal/rtable"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cliutil.New("tacoexplore", stdout, stderr, "entries", "seed", "workers", "interp", "json", "hist",
		"metrics-out", "forensics-out", "cpuprofile", "memprofile")
	c.PacketsFlag(64)
	table1 := c.Bool("table1", false, "regenerate the paper's Table 1")
	campower := c.Bool("campower", false, "CAM power-parity analysis (paper §4)")
	auto := c.Bool("auto", false, "automated design-space exploration")
	sweep := c.String("sweep", "", "sweep: tablesize | buses | packetsize | replication | largetable")
	progress := c.Bool("progress", false, "report live engine progress on stderr")
	tableKind := c.String("table-kind", strings.Join(rtable.Names(dse.LargeTableKinds), ","),
		"largetable sweep: comma-separated table kinds")
	tableSize := c.String("table-size", "10000,100000,1000000",
		"largetable sweep: comma-separated entry counts")
	churn := c.Int("churn", 0,
		"largetable sweep: update-churn operations applied before measurement")
	timing := c.Bool("timing", false,
		"stamp per-instance wall times (wall_ns) onto exported points; makes exports nondeterministic")
	return c.Run(args, func() error {
		cons := core.PaperConstraints()
		cons.TableEntries = c.Entries
		sim := core.DefaultSimOptions()
		sim.Packets = c.Packets
		sim.Seed = c.Seed
		// The JSON export is the consumer of the fine-grained counters, so
		// -json switches them on; both step paths record them natively.
		sim.Observe = c.JSON
		sim.Compiled = !c.Interp
		// -forensics-out arms the flight recorder on every instance and
		// turns each failure into a self-contained repro bundle.
		sim.ForensicsDir = c.ForensicsOut
		var large []dse.Instance
		if *sweep == "largetable" {
			kinds, err := cliutil.KindsByNames(*tableKind)
			if err != nil {
				return err
			}
			sizes, err := cliutil.ParseSizes(*tableSize)
			if err != nil {
				return err
			}
			if *churn < 0 {
				return cliutil.Usage(fmt.Errorf("bad churn %d: want a non-negative integer", *churn))
			}
			// The scaled evaluator has no simulated machine to observe; keep
			// the anchors' counters off so anchor results match -table1 runs.
			ltSim := sim
			ltSim.Observe = false
			large = dse.LargeTableInstances(kinds, sizes, *churn, cons, ltSim)
		}

		ctx := context.Background()
		if *progress {
			ctx = dse.WithProgress(ctx, dse.ProgressPrinter(stderr))
		}
		if *timing {
			ctx = dse.WithTiming(ctx)
		}
		if !*table1 && !*campower && !*auto && *sweep == "" {
			*table1 = true // default action
		}
		var err error
		if *table1 {
			err = runTable1(ctx, c, cons, sim)
		}
		if err == nil && *campower {
			err = runCAMPower(ctx, c, cons, sim)
		}
		if err == nil && *auto {
			err = runAuto(ctx, c, cons, sim)
		}
		if err == nil && *sweep != "" {
			err = runSweep(ctx, c, *sweep, cons, sim, large)
		}
		return err
	})
}

// export prints the merged latency summary on stderr (-hist) and writes
// the aggregated Prometheus exposition (-metrics-out) over the run's
// evaluated instances.
func export(c *cliutil.Command, source string, ms []core.Metrics) error {
	if c.Hist {
		h := &obs.LatencyHist{}
		for _, m := range ms {
			h.Merge(m.LatencyHist)
		}
		p := h.Percentiles()
		fmt.Fprintf(c.Stderr,
			"tacoexplore: latency over %d packets (%d instances): p50 %d, p90 %d, p99 %d, p99.9 %d cycles\n",
			h.Count(), len(ms), p.P50, p.P90, p.P99, p.P999)
	}
	return cliutil.WriteFile(c.MetricsOut, func(w io.Writer) error {
		return obs.WriteProm(w, dse.PromSnapshot(map[string]string{"source": source}, ms))
	})
}

// failedPoint prints a failed sweep point's error in place of its
// metrics row (graceful degradation: the rest of the sweep is valid).
func failedPoint(w io.Writer, p dse.Point) bool {
	if p.Err == "" {
		return false
	}
	if p.Bundle != "" {
		fmt.Fprintf(w, "  %g: FAILED — %s (bundle: %s)\n", p.X, p.Err, p.Bundle)
	} else {
		fmt.Fprintf(w, "  %g: FAILED — %s\n", p.X, p.Err)
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

func runTable1(ctx context.Context, c *cliutil.Command, cons core.Constraints, sim core.SimOptions) error {
	w := c.Stdout
	if !c.JSON {
		fmt.Fprintf(w, "Table 1 — estimated minimum clock frequencies, areas and power\n")
		fmt.Fprintf(w, "constraint: %.0f Gbps, %d-byte datagrams (%.2f Mpps), %d-entry table, %s\n\n",
			cons.ThroughputBps/1e9, cons.PacketBytes, cons.PacketRate()/1e6,
			cons.TableEntries, cons.Tech.Name)
	}
	ms, err := dse.Table1(ctx, cons, sim, c.Workers)
	if err != nil {
		return err
	}
	if sim.Compiled {
		// Spot-check the compiled results: replay every third cell with
		// the interpreter and require field-for-field identity. With
		// counters attached (-json) the check also covers the occupancy,
		// utilization and latency fields they derive.
		if err := dse.ReplayInterpreted(ctx, dse.Table1Instances(cons, sim), ms, 3, c.Workers); err != nil {
			return err
		}
		fmt.Fprintln(c.Stderr, "tacoexplore: compiled results spot-checked against the interpreter")
	}
	if err := export(c, "table1", ms); err != nil {
		return err
	}
	if c.JSON {
		return dse.WriteMetricsJSON(w, ms)
	}
	fmt.Fprint(w, core.FormatTable1(ms))
	if best, ok := core.SelectBest(ms); ok {
		fmt.Fprintf(w, "\nselected configuration: %s routing table, %s — %s, %.1f mm², %.2f W\n",
			best.Kind, best.Config.Name, estimate.FormatHz(best.RequiredClockHz),
			best.Est.AreaMM2, best.Est.PowerW)
	}
	return nil
}

func runCAMPower(ctx context.Context, c *cliutil.Command, cons core.Constraints, sim core.SimOptions) error {
	w := c.Stdout
	ms, err := dse.Table1(ctx, cons, sim, c.Workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "CAM power parity (paper §4): TACO+CAM total vs TACO-only solutions")
	for _, m := range ms {
		if !m.ClockFeasible {
			continue
		}
		total := m.Est.PowerW + m.CAMChipPowerW
		note := ""
		if m.CAMChipPowerW > 0 {
			note = fmt.Sprintf(" (core %.2f W + CAM chip %.2f W)", m.Est.PowerW, m.CAMChipPowerW)
		}
		fmt.Fprintf(w, "  %-14s %-18s total %.2f W%s\n", m.Kind, m.Config.Name, total, note)
	}
	return nil
}

func runAuto(ctx context.Context, c *cliutil.Command, cons core.Constraints, sim core.SimOptions) error {
	w := c.Stdout
	res, err := dse.ExploreCtx(ctx, cons, sim, 4, 3, c.Workers)
	if err != nil {
		return err
	}
	ranked := make([]core.Metrics, len(res.Ranked))
	for i, cand := range res.Ranked {
		ranked[i] = cand.Metrics
	}
	if err := export(c, "auto", ranked); err != nil {
		return err
	}
	if c.JSON {
		fmt.Fprintf(c.Stderr, "tacoexplore: %d instances evaluated\n", len(res.Ranked))
		return dse.WriteMetricsJSON(w, ranked)
	}
	fmt.Fprintf(w, "automated exploration: %d instances evaluated\n", len(res.Ranked))
	if !res.OK {
		fmt.Fprintln(w, "no configuration satisfies the constraints")
		return nil
	}
	fmt.Fprintln(w, "ranking (best first):")
	for i, cand := range res.Ranked {
		if i >= 8 {
			break
		}
		m := cand.Metrics
		status := "OK"
		if !m.Acceptable() {
			status = "infeasible"
		}
		fmt.Fprintf(w, "  %2d. %-14s %-20s %10s  %6.1f mm²  %5.2f W  [%s]\n",
			i+1, m.Kind, m.Config.Name, estimate.FormatHz(m.RequiredClockHz),
			m.Est.AreaMM2, m.Est.PowerW, status)
	}
	return nil
}

// runSweep runs one named sweep; large holds the largetable sweep's
// instances, built from its flags.
func runSweep(ctx context.Context, c *cliutil.Command, which string, cons core.Constraints, sim core.SimOptions, large []dse.Instance) error {
	w := c.Stdout
	if c.JSON {
		w = io.Discard // the JSON array of the points is the whole report
	}
	// Every sweep collects its points (all kinds concatenated; each
	// point's Kind/Config identifies it) for the -json array and the
	// -hist/-metrics-out aggregation.
	var jsonPts []dse.Point
	switch which {
	case "tablesize":
		sizes := []int{10, 25, 50, 100, 250, 500, 1000}
		rows := map[rtable.Kind][]dse.Point{}
		for _, kind := range rtable.PaperKinds {
			pts, err := dse.Sweep(ctx, dse.TableSizeInstances(fu.Config1Bus1FU(kind), sizes, cons, sim), c.Workers)
			if err != nil {
				return err
			}
			rows[kind] = pts
			jsonPts = append(jsonPts, pts...)
		}
		fmt.Fprintln(w, "table-size sweep (1BUS/1FU): cycles/packet by implementation")
		fmt.Fprintf(w, "%8s %12s %12s %12s %12s\n", "entries", "sequential", "tree", "cam", "trie(model)")
		for i, n := range sizes {
			// The trie has no hardware unit and is not swept, so its
			// column always prints "-".
			fmt.Fprintf(w, "%8d %12s %12s %12s %12s\n", n,
				cyclesCell(rows[rtable.Sequential][i]),
				cyclesCell(rows[rtable.BalancedTree][i]),
				cyclesCell(rows[rtable.CAM][i]), "-")
		}
	case "buses":
		for _, kind := range rtable.PaperKinds {
			pts, err := dse.Sweep(ctx, dse.BusInstances(kind, 4, cons, sim), c.Workers)
			if err != nil {
				return err
			}
			jsonPts = append(jsonPts, pts...)
			fmt.Fprintf(w, "bus sweep, %s:\n", kind)
			for _, p := range pts {
				if failedPoint(w, p) {
					continue
				}
				fmt.Fprintf(w, "  %d bus(es): %7.1f cycles/packet, required %s, util %.0f%%\n",
					int(p.X), p.Metrics.CyclesPerPacket,
					estimate.FormatHz(p.Metrics.RequiredClockHz),
					p.Metrics.BusUtilization*100)
			}
		}
	case "packetsize":
		sizes := []int{64, 128, 256, 512, 1024, 1500}
		cfg := fu.Config3Bus1FU(rtable.CAM)
		pts, err := dse.Sweep(ctx, dse.PacketSizeInstances(cfg, sizes, cons, sim), c.Workers)
		if err != nil {
			return err
		}
		jsonPts = append(jsonPts, pts...)
		fmt.Fprintf(w, "packet-size sweep (%s, CAM):\n", cfg.Name)
		for _, p := range pts {
			if failedPoint(w, p) {
				continue
			}
			fmt.Fprintf(w, "  %5d B: %6.1f cycles/packet, required %s\n",
				int(p.X), p.Metrics.CyclesPerPacket,
				estimate.FormatHz(p.Metrics.RequiredClockHz))
		}
	case "replication":
		for _, kind := range rtable.PaperKinds {
			pts, err := dse.Sweep(ctx, dse.ReplicationInstances(kind, 3, cons, sim), c.Workers)
			if err != nil {
				return err
			}
			jsonPts = append(jsonPts, pts...)
			fmt.Fprintf(w, "replication sweep, %s (3 buses):\n", kind)
			for _, p := range pts {
				if failedPoint(w, p) {
					continue
				}
				fmt.Fprintf(w, "  %dx CNT/CMP/M: %7.1f cycles/packet, required %s, %.1f mm², %.2f W\n",
					int(p.X), p.Metrics.CyclesPerPacket,
					estimate.FormatHz(p.Metrics.RequiredClockHz),
					p.Metrics.Est.AreaMM2, p.Metrics.Est.PowerW)
			}
		}
	case "largetable":
		pts, err := dse.Sweep(ctx, large, c.Workers)
		if err != nil {
			return err
		}
		jsonPts = append(jsonPts, pts...)
		fmt.Fprintln(w, "large-table sweep (1BUS/1FU, model-based: anchored cycles + measured probes + table SRAM):")
		fmt.Fprintf(w, "%-13s %9s %12s %9s %12s %10s %9s %9s %14s  %s\n",
			"kind", "entries", "cycles/pkt", "probes", "req clock", "area mm²", "power W", "cam W", "table mem", "verdict")
		for _, p := range pts {
			if failedPoint(w, p) {
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
			fmt.Fprintf(w, "%-13s %9d %12.1f %9.1f %12s %10.1f %9.2f %9s %14s  %s\n",
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
	if err := export(c, "sweep-"+which, ok); err != nil {
		return err
	}
	if c.JSON {
		return dse.WriteJSON(c.Stdout, jsonPts)
	}
	return nil
}

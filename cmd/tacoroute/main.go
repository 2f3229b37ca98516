// Command tacoroute simulates the Figure 1 router: a TACO protocol
// processor between line cards, forwarding a generated IPv6 workload
// over a chosen routing-table implementation and architecture instance,
// cross-checked against the golden software router.
//
// With -faults the workload is passed through the seeded fault
// injector first (adversarial traffic), and with -soak it runs
// repeated differential fault campaigns instead of a single batch.
//
// Usage:
//
//	tacoroute [-table sequential|tree|cam] [-config 3bus1fu]
//	          [-packets 200] [-entries 100] [-ifaces 4] [-seed 2003]
//	tacoroute -faults all:0.1 -fault-seed 7
//	tacoroute -soak [-soak-campaigns 8] [-faults all:0.2]
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"taco/internal/cliutil"
	"taco/internal/core"
	"taco/internal/estimate"
	"taco/internal/fault"
	"taco/internal/forensics"
	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/profile"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cliutil.New("tacoroute", stdout, stderr,
		"table", "config", "entries", "seed", "hist", "metrics-out", "forensics-out", "cpuprofile", "memprofile")
	c.PacketsFlag(200)
	ifaces := c.Int("ifaces", 4, "network interfaces")
	prof := c.Bool("profile", false, "print per-region cycle attribution (bottleneck analysis)")
	soak := c.Bool("soak", false, "run differential fault campaigns (golden vs TACO) instead of one batch")
	campaigns := c.Int("soak-campaigns", 8, "campaigns per -soak run")
	soakMaxCycles := c.Int64("soak-max-cycles", 0,
		"per-campaign watchdog budget for -soak (0 = generous default; low values provoke stalls)")
	faults := c.String("faults", "",
		"fault spec: comma-separated name[:prob] ("+fault.SpecNames()+", or all[:prob]); empty disables injection")
	faultSeed := c.Uint64("fault-seed", 1, "fault-injection seed (campaigns replay exactly)")
	return c.Run(args, func() error {
		if *ifaces < 1 {
			return cliutil.Usage(fmt.Errorf("-ifaces %d: want at least one network interface", *ifaces))
		}
		kind, cfg, err := c.Arch()
		if err != nil {
			return err
		}
		if *soak {
			return runSoak(c, cfg, *campaigns, *ifaces, *faults, *soakMaxCycles)
		}
		inj, err := fault.ParseSpec(*faults, *faultSeed)
		if err != nil {
			return cliutil.Usage(err)
		}

		routes := workload.GenerateRoutes(workload.TableSpec{Entries: c.Entries, Ifaces: *ifaces, Seed: c.Seed})
		spec := workload.PaperTrafficSpec(c.Packets)
		spec.Seed = c.Seed
		spec.MissRatio = 0.05
		pkts, err := workload.GenerateTraffic(routes, spec)
		if err != nil {
			return err
		}
		for i := range pkts {
			pkts[i].Data = inj.Apply(pkts[i].Data)
		}

		tbl := rtable.New(kind)
		if err := rtable.InsertAll(tbl, routes); err != nil {
			return err
		}
		tr, err := router.NewTACO(cfg, tbl, *ifaces)
		if err != nil {
			return err
		}
		if inj != nil {
			tr.EnableDropAudit()
		}
		if c.ForensicsOut != "" {
			tr.ArmRecorder(0)
		}
		if err := tr.UseCompiled(); err != nil {
			return err
		}
		arrivals := router.RoundRobin(pkts, *ifaces)
		want, err := router.ReferenceOutcomes(routes, *ifaces, arrivals)
		if err != nil {
			return err
		}
		budget := router.WatchdogBudget(c.Packets, c.Entries)
		run, err := tr.RunChecked(arrivals, want, budget, nil)
		if inj == nil && run.Delivered != int64(len(pkts)) {
			// Without injected faults every generated frame is valid, so a
			// rejection can only be queue overflow — a real failure.
			return fmt.Errorf("line card overflow: %d of %d datagrams accepted", run.Delivered, len(pkts))
		}
		var stall *router.StallError
		if errors.As(err, &stall) {
			fmt.Fprintln(stderr, "tacoroute: forwarding stalled; machine state:")
			fmt.Fprintln(stderr, stall.Dump())
		}
		if c.ForensicsOut != "" {
			base := forensics.NewRouterBundle("", fmt.Sprintf("%s/%s", kind, cfg.Name), cfg, *ifaces, routes,
				arrivals, run.Delivered, budget, true)
			base.Seed = c.Seed
			base.FaultSpec = *faults
			for _, b := range base.Failures(tr, run, err) {
				c.SaveBundle(b, c.ForensicsOut)
			}
		}
		if err != nil {
			// A stalled run still gets its scrape: the stall-attribution
			// counters are exactly what the operator wants to see.
			return errors.Join(err, writeMetrics(c.MetricsOut, tr, kind, cfg))
		}

		st := tr.Machine.Stats()
		fmt.Fprintf(stdout, "TACO router: %s table, %s architecture\n", kind, cfg.Name)
		fmt.Fprintf(stdout, "  program: %d instructions, %d moves\n", tr.Sched.Cycles, tr.Sched.MovesOut)
		fmt.Fprintf(stdout, "  %d datagrams in %d cycles: %.1f cycles/datagram, bus utilization %.0f%%\n",
			len(pkts), st.Cycles, tr.CyclesPerPacket(), st.BusUtilization()*100)
		rate := core.PaperConstraints().PacketRate()
		fmt.Fprintf(stdout, "  required clock for 10 Gbps: %s\n",
			estimate.FormatHz(tr.CyclesPerPacket()*rate))

		count := make([]int, *ifaces+2) // forwarded per interface, local, dropped
		for _, o := range run.Outcomes.Datagrams {
			switch o.Action {
			case router.Forward:
				count[o.Iface]++
			case router.Local:
				count[*ifaces]++
			default:
				count[*ifaces+1]++
			}
		}
		for i, n := range count[:*ifaces] {
			fmt.Fprintf(stdout, "  interface %d: %d datagrams out\n", i, n)
		}
		fmt.Fprintf(stdout, "  local deliveries: %d, dropped: %d\n", count[*ifaces], count[*ifaces+1])
		maxIn, dropped, reasons := queues(tr)
		fmt.Fprintf(stdout, "  line-card queues: max input depth %d of %d, input drops %d\n",
			maxIn, linecard.MaxQueue, dropped)
		if m := reasons.Map(); len(m) > 0 {
			fmt.Fprintln(stdout, "  drops by reason:")
			for _, k := range sortedKeys(m) {
				fmt.Fprintf(stdout, "    %-20s %d\n", k, m[k])
			}
		}
		if inj != nil {
			if counts := inj.Counts(); len(counts) > 0 {
				fmt.Fprint(stdout, "  mutations applied:")
				for _, k := range sortedKeys(counts) {
					fmt.Fprintf(stdout, " %s=%d", k, counts[k])
				}
				fmt.Fprintln(stdout)
			}
			if n := run.Unexplained; n != 0 {
				return fmt.Errorf("%d machine drops could not be attributed to a DropReason", n)
			}
		}
		if lat := tr.Latency(); lat.Count > 0 {
			fmt.Fprintf(stdout, "  latency (cycles, store->transmit): min %d, mean %.0f, p99 %d, max %d\n",
				lat.MinCycles, lat.MeanCycles, lat.P99Cycles, lat.MaxCycles)
		}
		if c.Hist {
			printHist(stdout, tr.LatencyHist())
		}
		if err := writeMetrics(c.MetricsOut, tr, kind, cfg); err != nil {
			return err
		}

		if !run.Diff.Agree() {
			return fmt.Errorf("golden-router cross-check: %v", run.Diff)
		}
		fmt.Fprintln(stdout, "  golden-router cross-check: OK")
		if *prof {
			prf := profile.New(tr.Sched.Program, tr.Machine.Count())
			fmt.Fprintf(stdout, "\ncycle attribution (bottleneck analysis):\n%s", prf)
		}
		return nil
	})
}

// queues sums the line cards' queue statistics: the deepest input
// queue, the input drops, and the drops by reason.
func queues(tr *router.TACO) (maxIn int, dropped int64, reasons obs.DropCounters) {
	for _, qs := range tr.QueueStats() {
		maxIn = max(maxIn, qs.MaxInDepth)
		dropped += qs.DroppedIn
		reasons.Merge(qs.Drops)
	}
	return maxIn, dropped, reasons
}

// sortedKeys returns the names of a count map in order, so it prints
// the same way every run.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printHist renders the latency histogram as an indented bucket table
// with the extracted percentiles.
func printHist(w io.Writer, h *obs.LatencyHist) {
	p := h.Percentiles()
	fmt.Fprintf(w, "  latency histogram: %d samples, p50 %d, p90 %d, p99 %d, p99.9 %d cycles\n",
		h.Count(), p.P50, p.P90, p.P99, p.P999)
	h.ForEachBucket(func(high, count int64) {
		fmt.Fprintf(w, "    <= %7d cycles  %d\n", high, count)
	})
}

// writeMetrics writes the router's full observability state —
// counters, drops, stall attribution, latency histogram — to path as
// Prometheus text exposition; an empty path writes nothing.
func writeMetrics(path string, tr *router.TACO, kind rtable.Kind, cfg fu.Config) error {
	_, _, drops := queues(tr)
	snap := obs.MetricSnapshot{
		Labels:          map[string]string{"config": cfg.Name, "table": fmt.Sprint(kind)},
		Cycles:          tr.Machine.Stats().Cycles,
		Packets:         tr.Units.IPPU.Popped(),
		CyclesPerPacket: tr.CyclesPerPacket(),
		Counters:        tr.Machine.Counters(),
		UnitNames:       tr.Machine.UnitNames(),
		SocketNames:     tr.Machine.SocketNames(),
		Drops:           &drops,
		SchedStalls:     tr.SchedStalls(),
		Stalls:          tr.WatchdogStalls(),
		Latency:         tr.LatencyHist(),
	}
	return cliutil.WriteFile(path, func(w io.Writer) error { return obs.WriteProm(w, snap) })
}

// runSoak executes the differential fault campaigns and fails on any
// divergence; with -forensics-out, every failing campaign leaves a
// tacoreplay bundle behind.
func runSoak(c *cliutil.Command, cfg fu.Config, campaigns, ifaces int, spec string, maxCycles int64) error {
	rep, err := fault.RunSoak(fault.SoakOptions{
		Campaigns: campaigns, Packets: c.Packets, Entries: c.Entries,
		Ifaces: ifaces, Seed: c.Seed, Spec: spec, Config: cfg,
		MaxCycles: maxCycles, ForensicsDir: c.ForensicsOut,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(c.Stdout, rep.String())
	for _, b := range rep.Bundles {
		fmt.Fprintf(c.Stdout, "  forensic bundle: %s (replay with: tacoreplay -bundle %s)\n", b, b)
	}
	if !rep.Clean() {
		return fmt.Errorf("soak diverged: %d stalls, %d mismatches, %d unexplained drops",
			rep.Stalls, rep.Mismatches, rep.Unexplained)
	}
	return nil
}

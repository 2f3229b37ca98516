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
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

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
	"taco/internal/tta"
	"taco/internal/workload"
)

func main() {
	var (
		table      = flag.String("table", "tree", "routing table: "+strings.Join(rtable.Names(rtable.PaperKinds), " | ")+" (or an alias)")
		config     = flag.String("config", "3bus1fu", "architecture: 1bus | 3bus1fu | 3bus3fu")
		packets    = flag.Int("packets", 200, "datagrams to forward")
		entries    = flag.Int("entries", 100, "routing-table entries")
		ifaces     = flag.Int("ifaces", 4, "network interfaces")
		seed       = flag.Uint64("seed", 2003, "workload seed")
		verify     = flag.Bool("verify", true, "cross-check against the golden router")
		prof       = flag.Bool("profile", false, "print per-region cycle attribution (bottleneck analysis)")
		soak       = flag.Bool("soak", false, "run differential fault campaigns (golden vs TACO) instead of one batch")
		campaigns  = flag.Int("soak-campaigns", 8, "campaigns per -soak run")
		hist       = flag.Bool("hist", false, "print the per-packet latency histogram")
		metricsOut = flag.String("metrics-out", "",
			"write Prometheus text exposition to this file (also on stall)")
		forensicsOut = flag.String("forensics-out", "",
			"arm the flight recorder and write forensic bundles (replayable with tacoreplay) into this directory on failure")
		soakMaxCycles = flag.Int64("soak-max-cycles", 0,
			"per-campaign watchdog budget for -soak (0 = generous default; low values provoke stalls)")
	)
	var pprofFlags cliutil.Profiling
	pprofFlags.RegisterFlags(flag.CommandLine)
	var faultFlags cliutil.FaultFlags
	faultFlags.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := pprofFlags.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	kind, err := rtable.ParseKind(*table)
	if err != nil {
		fatal(err)
	}
	cfg, err := cliutil.ConfigByName(*config, kind)
	if err != nil {
		fatal(err)
	}

	if *soak {
		runSoak(cfg, *campaigns, *packets, *entries, *ifaces, *seed, faultFlags.Spec,
			*soakMaxCycles, *forensicsOut)
		return
	}
	inj, err := faultFlags.Injector()
	if err != nil {
		fatal(err)
	}

	routes := workload.GenerateRoutes(workload.TableSpec{
		Entries: *entries, Ifaces: *ifaces, Seed: *seed,
	})
	spec := workload.PaperTrafficSpec(*packets)
	spec.Seed = *seed
	spec.MissRatio = 0.05
	pkts, err := workload.GenerateTraffic(routes, spec)
	if err != nil {
		fatal(err)
	}
	for i := range pkts {
		pkts[i].Data = inj.Apply(pkts[i].Data)
	}

	tbl := rtable.New(kind)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		fatal(err)
	}
	tr, err := router.NewTACO(cfg, tbl, *ifaces)
	if err != nil {
		fatal(err)
	}
	if inj != nil {
		tr.EnableDropAudit()
	}
	var ctrs *obs.Counters
	if *metricsOut != "" {
		// Counters are native on both step paths now, so the scrape
		// costs almost nothing.
		ctrs = tr.Machine.AttachCounters()
	}
	// The profile reads the recorder between cycles of a stepped run;
	// without it the run is the batch one (a nil observer).
	var prf *profile.Profile
	var onCycle tta.CycleFunc
	if *prof {
		prf = profile.New(tr.Sched.Program)
		onCycle = prf.Hook()
	}
	if *forensicsOut != "" || *prof {
		tr.ArmRecorder(0)
	}
	arrivals := router.RoundRobin(pkts, *ifaces)
	delivered := tr.DeliverAll(arrivals)
	if inj == nil && delivered != int64(len(pkts)) {
		// Without injected faults every generated frame is valid, so a
		// rejection can only be queue overflow — a real failure.
		fatal(fmt.Errorf("line card overflow: %d of %d datagrams accepted", delivered, len(pkts)))
	}
	budget := router.WatchdogBudget(*packets, *entries)
	if _, err := tr.RunStepped(delivered, budget, onCycle); err != nil {
		var stall *router.StallError
		if errors.As(err, &stall) {
			fmt.Fprintln(os.Stderr, "tacoroute: forwarding stalled; machine state:")
			fmt.Fprintln(os.Stderr, stall.Dump())
			if *forensicsOut != "" {
				b := forensics.NewRouterBundle(forensics.KindStall,
					fmt.Sprintf("%s/%s", kind, cfg.Name), cfg, *ifaces, routes,
					arrivals, delivered, budget, false)
				b.Seed = *seed
				b.FaultSpec = faultFlags.Spec
				b.RecorderCap = obs.DefaultRecorderCap
				b.AttachStall(stall)
				if path, berr := b.Save(*forensicsOut); berr != nil {
					fmt.Fprintln(os.Stderr, "tacoroute: forensics capture failed:", berr)
				} else {
					fmt.Fprintf(os.Stderr, "tacoroute: forensic bundle written: %s\n", path)
					fmt.Fprintf(os.Stderr, "tacoroute: replay with: tacoreplay -bundle %s\n", path)
				}
			}
		}
		// A stalled run still gets its scrape: the stall-attribution
		// counters are exactly what the operator wants to see.
		if *metricsOut != "" {
			if merr := writeMetrics(*metricsOut, tr, ctrs, kind, cfg); merr != nil {
				fmt.Fprintln(os.Stderr, "tacoroute:", merr)
			}
		}
		fatal(err)
	}
	got := tr.Collect(arrivals) // also finalizes the drop audit

	st := tr.Machine.Stats()
	fmt.Printf("TACO router: %s table, %s architecture\n", kind, cfg.Name)
	fmt.Printf("  program: %d instructions, %d moves\n", tr.Sched.Cycles, tr.Sched.MovesOut)
	fmt.Printf("  %d datagrams in %d cycles: %.1f cycles/datagram, bus utilization %.0f%%\n",
		len(pkts), st.Cycles, tr.CyclesPerPacket(), st.BusUtilization()*100)
	rate := core.PaperConstraints().PacketRate()
	fmt.Printf("  required clock for 10 Gbps: %s\n",
		estimate.FormatHz(tr.CyclesPerPacket()*rate))

	count := make([]int, *ifaces+2) // forwarded per interface, local, dropped
	for _, o := range got.Datagrams {
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
		fmt.Printf("  interface %d: %d datagrams out\n", i, n)
	}
	fmt.Printf("  local deliveries: %d, dropped: %d\n", count[*ifaces], count[*ifaces+1])
	maxIn, dropped := 0, int64(0)
	for _, qs := range tr.QueueStats() {
		if qs.MaxInDepth > maxIn {
			maxIn = qs.MaxInDepth
		}
		dropped += qs.DroppedIn
	}
	fmt.Printf("  line-card queues: max input depth %d of %d, input drops %d\n",
		maxIn, linecard.MaxQueue, dropped)
	var reasons obs.DropCounters
	for _, qs := range tr.QueueStats() {
		reasons.Merge(qs.Drops)
	}
	if m := reasons.Map(); len(m) > 0 {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Println("  drops by reason:")
		for _, k := range names {
			fmt.Printf("    %-20s %d\n", k, m[k])
		}
	}
	if inj != nil {
		if counts := inj.Counts(); len(counts) > 0 {
			names := make([]string, 0, len(counts))
			for k := range counts {
				names = append(names, k)
			}
			sort.Strings(names)
			fmt.Print("  mutations applied:")
			for _, k := range names {
				fmt.Printf(" %s=%d", k, counts[k])
			}
			fmt.Println()
		}
		if n := tr.UnexplainedDrops(); n != 0 {
			fatal(fmt.Errorf("%d machine drops could not be attributed to a DropReason", n))
		}
	}
	if lat := tr.Latency(); lat.Count > 0 {
		fmt.Printf("  latency (cycles, store->transmit): min %d, mean %.0f, p99 %d, max %d\n",
			lat.MinCycles, lat.MeanCycles, lat.P99Cycles, lat.MaxCycles)
	}
	if *hist {
		printHist(tr.LatencyHist())
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, tr, ctrs, kind, cfg); err != nil {
			fatal(err)
		}
	}

	if *verify {
		d := router.Compare(router.NewGolden(tbl, *ifaces).Expected(arrivals), got)
		if !d.Agree() {
			fatal(fmt.Errorf("golden-router cross-check: TACO diverges on %d datagrams (first seqs %v) and the drop counters of cards %v",
				len(d.Seqs), d.Seqs[:min(len(d.Seqs), 8)], d.Cards))
		}
		fmt.Println("  golden-router cross-check: OK")
	}
	if prf != nil {
		fmt.Printf("\ncycle attribution (bottleneck analysis):\n%s", prf.String())
	}
}

// printHist renders the latency histogram as an indented bucket table
// with the extracted percentiles.
func printHist(h *obs.LatencyHist) {
	p := h.Percentiles()
	fmt.Printf("  latency histogram: %d samples, p50 %d, p90 %d, p99 %d, p99.9 %d cycles\n",
		h.Count(), p.P50, p.P90, p.P99, p.P999)
	h.ForEachBucket(func(high, count int64) {
		fmt.Printf("    <= %7d cycles  %d\n", high, count)
	})
}

// writeMetrics renders the router's full observability state — counters,
// drops, stall attribution, latency histogram — as Prometheus text
// exposition.
func writeMetrics(path string, tr *router.TACO, ctrs *obs.Counters, kind rtable.Kind, cfg fu.Config) error {
	var drops obs.DropCounters
	for _, qs := range tr.QueueStats() {
		drops.Merge(qs.Drops)
	}
	units := tr.Machine.Units()
	names := make([]string, len(units))
	for u, unit := range units {
		names[u] = unit.Name()
	}
	snap := obs.MetricSnapshot{
		Labels:          map[string]string{"config": cfg.Name, "table": fmt.Sprint(kind)},
		Cycles:          tr.Machine.Stats().Cycles,
		Packets:         tr.Units.IPPU.Popped(),
		CyclesPerPacket: tr.CyclesPerPacket(),
		Counters:        ctrs,
		UnitNames:       names,
		SocketNames:     tr.Machine.SocketNames(),
		Drops:           &drops,
		SchedStalls:     tr.SchedStalls(),
		Stalls:          tr.WatchdogStalls(),
		Latency:         tr.LatencyHist(),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteProm(f, snap); err != nil {
		f.Close()
		return fmt.Errorf("metrics-out: %w", err)
	}
	return f.Close()
}

// runSoak executes the differential fault campaigns and exits non-zero
// on any divergence, so `make soak` and the CI smoke job gate on it.
// With forensicsDir set, every failing campaign leaves a tacoreplay
// bundle behind.
func runSoak(cfg fu.Config, campaigns, packets, entries, ifaces int, seed uint64, spec string,
	maxCycles int64, forensicsDir string) {
	rep, err := fault.RunSoak(fault.SoakOptions{
		Campaigns: campaigns, Packets: packets, Entries: entries,
		Ifaces: ifaces, Seed: seed, Spec: spec, Config: cfg,
		MaxCycles: maxCycles, ForensicsDir: forensicsDir,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep.String())
	for _, b := range rep.Bundles {
		fmt.Printf("  forensic bundle: %s (replay with: tacoreplay -bundle %s)\n", b, b)
	}
	if !rep.Clean() {
		fatal(fmt.Errorf("soak diverged: %d stalls, %d mismatches, %d unexplained drops",
			rep.Stalls, rep.Mismatches, rep.Unexplained))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tacoroute:", err)
	os.Exit(1)
}

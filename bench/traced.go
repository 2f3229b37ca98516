package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"taco/internal/bits"
	"taco/internal/core"
	"taco/internal/dse"
	"taco/internal/estimate"
	"taco/internal/fault"
	"taco/internal/forensics"
	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/isa"
	"taco/internal/linecard"
	tnet "taco/internal/net"
	"taco/internal/obs"
	"taco/internal/program"
	"taco/internal/ripng"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/sched"
	"taco/internal/tta"
	"taco/internal/workload"
)

// The traced run drives each workload's pipeline step by step through
// the layers' public functions, with a span around every call. The
// stepped pipelines below mirror core.Evaluate, core.EvaluateScaled and
// fault.RunSoak; each leg also runs the opaque call and requires the
// two to agree on the sim digest, so a span never times a different
// program from the one the untraced passes measure.

// rootSpan is the name of a traced iteration's root; its self time is
// harness glue.
const rootSpan = "bench.iteration"

// traceOut is what one workload's traced leg reports.
type traceOut struct {
	Workload string
	// Metrics holds the layer metrics this leg measures, by ledger name.
	// A results file drops them (the ledger has them merged) and the
	// spans (they go to -trace-out).
	Metrics map[string]float64 `json:",omitempty"`
	Spans   []span             `json:",omitempty"`
	// TracedS and OpaqueS are the summed walls of the traced iterations
	// and of the same number of opaque ones at the same parallelism;
	// TraceOverheadRatio is the first over the second.
	TracedS, OpaqueS   float64
	TraceOverheadRatio float64
	// Shares is the traced iterations' wall by layer self time.
	Shares               map[string]float64
	Digest, OpaqueDigest string
	Ops, Failed          int64
	Failures             []string
}

// runLeg interleaves reps opaque iterations with reps traced ones and
// checks every pair's digests agree. warmup first runs one of each off
// the record; the legs whose iteration lasts a second skip it, since
// lazy set-up is lost in an iteration that long and the traced run has
// a time budget to keep.
func runLeg(name string, reps int, warmup bool, opaque *instance, traced func(*tracer) (iterOut, error)) (*traceOut, *tracer, error) {
	if warmup {
		if err := opaque.iter(); err != nil {
			return nil, nil, err
		}
		opaque.settle()
		if _, err := traced(newTracer(name)); err != nil {
			return nil, nil, err
		}
	}
	tr := newTracer(name)
	out := &traceOut{Workload: name, Metrics: map[string]float64{}}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if err := opaque.iter(); err != nil {
			return nil, nil, err
		}
		out.OpaqueS += time.Since(t0).Seconds()
		want := opaque.settle()

		tr.inst = fmt.Sprintf("iter%d", rep)
		root := tr.begin(rootSpan)
		got, err := traced(tr)
		tr.end(root, got.Ops)
		if err != nil {
			return nil, nil, err
		}
		out.TracedS += float64(tr.spans[root].dur()) / 1e9
		out.Ops += got.Ops
		out.Failed += got.Failed + want.Failed
		out.Failures = append(append(out.Failures, got.Failures...), want.Failures...)
		out.Digest, out.OpaqueDigest = got.Digest, want.Digest
		if got.Digest != want.Digest {
			out.Failed++
			out.Failures = append(out.Failures, fmt.Sprintf(
				"%s: stepped pipeline digest %s differs from the opaque call's %s", name, got.Digest, want.Digest))
		}
	}
	if opaque.finish != nil {
		fails := opaque.finish()
		out.Failed += int64(len(fails))
		out.Failures = append(out.Failures, fails...)
	}
	return out, tr, nil
}

// seal copies the tracer's spans into the leg's result and checks them.
func (t *traceOut) seal(tr *tracer) error {
	t.Spans = tr.spans
	t.Shares = layerShares(tr.spans, rootSpan)
	if t.OpaqueS > 0 {
		t.TraceOverheadRatio = t.TracedS / t.OpaqueS
	}
	if err := checkNesting(tr.spans); err != nil {
		return fmt.Errorf("%s: %w", t.Workload, err)
	}
	return nil
}

// runTraceLeg runs the named workload's traced leg.
func runTraceLeg(name string, seed uint64, tmp string) (*traceOut, error) {
	switch name {
	case "table1":
		return traceTable1(seed)
	case "table1-fast-obs":
		return traceFastObs(seed, tmp)
	case "largetable":
		return traceLargeTable(seed)
	case "rtable-churn":
		return traceChurn(seed)
	case "router-faults":
		return traceRouterFaults(seed, tmp)
	case "mesh-chaos":
		return traceMeshChaos(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// ---- core.Evaluate, step by step ----

// stepPath selects the machine's step path and sinks for one stepped
// evaluation; run names the span around the simulation.
type stepPath struct {
	compiled, observe, record bool
	run                       string
}

var (
	pathInterp      = stepPath{run: "tta.run.interp"}
	pathCompiled    = stepPath{compiled: true, run: "tta.run.compiled"}
	pathCompiledObs = stepPath{compiled: true, observe: true, run: "tta.run.compiled_obs"}
	pathCompiledRec = stepPath{compiled: true, observe: true, record: true, run: "tta.run.compiled_rec"}
)

// steppedEvaluate is core.Evaluate with a span per layer call. It fills
// the Metrics fields the digests, the scaling model and the exports
// read; inputs derive exactly as core's do.
func steppedEvaluate(tr *tracer, cfg fu.Config, cons core.Constraints, sim core.SimOptions, path stepPath) (core.Metrics, error) {
	var (
		m   core.Metrics
		err error
	)
	root := tr.begin("core.evaluate")
	defer func() { tr.end(root, 1) }()

	var routes []rtable.Route
	tr.do("workload.generate_routes", func() int64 {
		routes = workload.GenerateRoutes(workload.TableSpec{Entries: cons.TableEntries, Ifaces: sim.Ifaces, Seed: sim.Seed})
		return int64(len(routes))
	})
	var pkts []workload.Packet
	tr.do("workload.generate_traffic", func() int64 {
		pkts, err = workload.GenerateTraffic(routes, workload.TrafficSpec{
			Packets: sim.Packets, SizeBytes: cons.PacketBytes, MissRatio: sim.MissRatio, Seed: sim.Seed})
		return int64(len(pkts))
	})
	if err != nil {
		return m, err
	}
	budget := int64(sim.Packets) * int64(cons.TableEntries+64) * 64

	tbl := rtable.New(cfg.Table)
	tr.do("rtable.insert_all", func() int64 {
		err = rtable.InsertAll(tbl, routes)
		return int64(len(routes))
	})
	if err != nil {
		return m, err
	}

	// router.NewTACO is the next three calls; its exported fields are
	// all that Deliver, Run and the accessors below read.
	bank := linecard.NewBank(sim.Ifaces + 1)
	var (
		machine *tta.Machine
		units   *fu.RouterUnits
		prog    *isa.Program
		res     *sched.Result
	)
	tr.do("fu.new_router_machine", func() int64 {
		if machine, units, err = fu.NewRouterMachine(cfg, tbl, bank); err == nil {
			units.LIU.SetIfaceCount(sim.Ifaces)
		}
		return 1
	})
	if err != nil {
		return m, err
	}
	tr.do("program.forwarding", func() int64 {
		prog, res, err = program.Forwarding(machine, cfg)
		return 1
	})
	if err != nil {
		return m, err
	}
	tr.do("tta.load", func() int64 { err = machine.Load(prog); return 1 })
	if err != nil {
		return m, err
	}
	taco := &router.TACO{Machine: machine, Units: units, Bank: bank, Sched: res}
	if path.observe {
		machine.AttachCounters()
	}
	if path.record {
		taco.ArmRecorder(0)
	}
	if path.compiled {
		tr.do("tta.compile", func() int64 { err = taco.UseCompiled(); return 1 })
		if err != nil {
			return m, err
		}
	}
	tr.do("linecard.deliver", func() int64 {
		for i, p := range pkts {
			if !taco.Deliver(i%sim.Ifaces, linecard.Datagram{Data: p.Data, Seq: p.Seq}) {
				err = fmt.Errorf("line card overflow at packet %d", i)
			}
		}
		return int64(len(pkts))
	})
	if err != nil {
		return m, err
	}
	tr.do(path.run, func() int64 {
		err = taco.Run(int64(len(pkts)), budget)
		return machine.Stats().Cycles
	})
	if err != nil {
		return m, err
	}

	cycles := taco.CyclesPerPacket()
	required := cycles * cons.PacketRate()
	var est estimate.Estimate
	tr.do("estimate.physical", func() int64 { est = estimate.Physical(cfg, required, cons.Tech); return 1 })

	m = core.Metrics{
		Kind: cfg.Table, Config: cfg,
		CyclesPerPacket: cycles, PacketsRun: len(pkts),
		RequiredClockHz: required, Est: est,
	}
	m.LatencyHist = taco.LatencyHist()
	if m.LatencyHist.Count() > 0 {
		p := m.LatencyHist.Percentiles()
		m.LatencyCount = m.LatencyHist.Count()
		m.LatencyP50, m.LatencyP90, m.LatencyP99, m.LatencyP999 = p.P50, p.P90, p.P99, p.P999
	}
	switch u := units.RTU.(type) {
	case *fu.RTUSeq:
		m.RTULoads = u.Loads()
	case *fu.RTUTree:
		m.RTULoads = u.Loads()
	case *fu.RTUCAM:
		m.RTULoads = u.Searches()
	}
	return m, nil
}

// steppedTable1 evaluates the nine Table 1 instances one by one.
func steppedTable1(tr *tracer, cons core.Constraints, sim core.SimOptions, path stepPath) ([]core.Metrics, error) {
	var ms []core.Metrics
	for _, inst := range dse.Table1Instances(cons, sim) {
		tr.inst = inst.Label
		m, err := steppedEvaluate(tr, inst.Cfg, inst.Cons, inst.Sim, path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inst.Label, err)
		}
		ms = append(ms, m)
	}
	return ms, nil
}

const table1Reps = 5

func traceTable1(seed uint64) (*traceOut, error) {
	cons, sim := core.PaperConstraints(), table1Sim(seed)
	var last iterOut
	out, tr, err := runLeg("table1", table1Reps, true, setupTable1(sim), func(tr *tracer) (iterOut, error) {
		ms, err := steppedTable1(tr, cons, sim, pathInterp)
		if err != nil {
			return table1Failed(err), nil
		}
		last = summarizeTable1(ms)
		return last, nil
	})
	if err != nil {
		return nil, err
	}
	out.Metrics["fu.machine_build_us"] = tr.meanUS("fu.new_router_machine")
	out.Metrics["program.forwarding_us"] = tr.meanUS("program.forwarding")
	out.Metrics["tta.interp_ns_per_cycle"] = tr.per("tta.run.interp")
	out.Metrics["estimate.physical_us"] = tr.meanUS("estimate.physical")
	out.Metrics["core.evaluate_self_us"] = tr.selfMeanUS("core.evaluate")
	out.Metrics["sim.table1.cycles_per_packet"] = last.CyclesPerPacket
	out.Metrics["sim.table1.paper_clock_err"] = last.ClockErr
	return out, out.seal(tr)
}

const fastObsReps = 3

// traceFastObs traces the workload's own path (compiled, counters,
// recorder) and adds two legs outside the iteration — compiled bare and
// compiled with counters — for the overhead ratios tacobench records.
func traceFastObs(seed uint64, tmp string) (*traceOut, error) {
	cons, sim := core.PaperConstraints(), fastObsSim(seed, tmp)
	var last iterOut
	out, tr, err := runLeg("table1-fast-obs", fastObsReps, true, setupFastObs(seed, tmp), func(tr *tracer) (iterOut, error) {
		ms, err := steppedTable1(tr, cons, sim, pathCompiledRec)
		if err != nil {
			return table1Failed(err), nil
		}
		last = summarizeTable1(ms)
		return last, nil
	})
	if err != nil {
		return nil, err
	}
	for rep := 0; rep < fastObsReps; rep++ {
		for _, path := range []stepPath{pathCompiled, pathCompiledObs} {
			root := tr.begin("bench.extra_leg")
			ms, err := steppedTable1(tr, cons, sim, path)
			tr.end(root, int64(len(ms)))
			if err != nil {
				return nil, err
			}
			if got := summarizeTable1(ms); got.Digest != last.Digest {
				out.Failed++
				out.Failures = append(out.Failures, fmt.Sprintf("table1-fast-obs: %s digest %s differs from the recorded path's %s",
					path.run, got.Digest, last.Digest))
			}
		}
	}
	ms, err := dse.Table1(context.Background(), cons, sim, 1)
	if err != nil {
		return nil, err
	}
	points := make([]dse.Point, len(ms))
	for i, m := range ms {
		points[i] = dse.Point{X: float64(i), Metrics: m}
	}
	for rep := 0; rep < fastObsReps; rep++ {
		tr.do("obs.prom_export", func() int64 {
			err = dse.WritePromPoints(io.Discard, map[string]string{"bench": "table1-fast-obs"}, points)
			return int64(len(points))
		})
		if err != nil {
			return nil, err
		}
	}
	bare := tr.per("tta.run.compiled")
	out.Metrics["tta.compile_us"] = tr.meanUS("tta.compile")
	out.Metrics["tta.compiled_ns_per_cycle"] = bare
	out.Metrics["tta.compiled_obs_ns_per_cycle"] = tr.per("tta.run.compiled_obs")
	out.Metrics["tta.compiled_rec_ns_per_cycle"] = tr.per("tta.run.compiled_rec")
	if bare > 0 {
		out.Metrics["tta.counter_overhead_ratio"] = tr.per("tta.run.compiled_obs") / bare
		out.Metrics["tta.recorder_overhead_ratio"] = tr.per("tta.run.compiled_rec") / bare
	}
	out.Metrics["obs.prom_export_us"] = tr.meanUS("obs.prom_export")
	out.Metrics["sim.table1-fast-obs.cycles_per_packet"] = last.CyclesPerPacket
	return out, out.seal(tr)
}

// ---- core.EvaluateScaled, step by step ----

// steppedEvaluateScaled mirrors core.EvaluateScaled: two cycle-accurate
// anchors, the fitted line, probes measured on the built table, and the
// co-analysis with the table SRAM added.
func steppedEvaluateScaled(tr *tracer, cfg fu.Config, spec core.ScaleSpec, cons core.Constraints, sim core.SimOptions) (core.Metrics, error) {
	root := tr.begin("core.evaluate_scaled")
	defer func() { tr.end(root, 1) }()

	spec.AnchorEntries = core.DefaultAnchorEntries
	spec.SampleLookups = core.DefaultSampleLookups
	donor, modelled := spec.Kind, false
	switch spec.Kind {
	case rtable.Multibit, rtable.Trie, rtable.TiledTCAM, rtable.Compressed:
		donor, modelled = rtable.BalancedTree, true
	}
	anchorCfg := cfg
	anchorCfg.Table = donor
	model := core.ScaleModel{AnchorEntries: spec.AnchorEntries, DonorKind: donor, Modelled: modelled}
	for i, n := range spec.AnchorEntries {
		aCons := cons
		aCons.TableEntries = n
		am, err := steppedEvaluate(tr, anchorCfg, aCons, sim, pathInterp)
		if err != nil {
			return core.Metrics{}, fmt.Errorf("anchor %d entries: %w", n, err)
		}
		model.AnchorCycles[i] = am.CyclesPerPacket
		model.AnchorProbes[i] = float64(am.RTULoads) / float64(am.PacketsRun)
	}
	if dp := model.AnchorProbes[1] - model.AnchorProbes[0]; math.Abs(dp) > 1e-9 {
		model.PerProbeCycles = (model.AnchorCycles[1] - model.AnchorCycles[0]) / dp
	}
	model.OverheadCycles = model.AnchorCycles[0] - model.PerProbeCycles*model.AnchorProbes[0]
	if modelled {
		model.PerProbeCycles, _ = program.ModelPerProbe(spec.Kind, model.PerProbeCycles)
	}

	var routes []rtable.Route
	tr.do("workload.generate_large", func() int64 {
		routes = workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: spec.Entries, Ifaces: sim.Ifaces, Seed: sim.Seed})
		return int64(len(routes))
	})
	avgProbes, dims, entries := 1.0, rtable.MemDims{Entries: len(routes)}, len(routes)
	switch spec.Kind {
	case rtable.CAM: // analytic: one associative search per lookup
	case rtable.Sequential: // analytic: full scan per lookup
		avgProbes = float64(entries)
	default:
		tbl := rtable.New(spec.Kind)
		var err error
		tr.do("rtable.build_large", func() int64 {
			err = rtable.InsertAll(tbl, routes)
			return int64(len(routes))
		})
		if err != nil {
			return core.Metrics{}, fmt.Errorf("build %v table: %w", spec.Kind, err)
		}
		tbl.ResetStats()
		var dests []bits.Word128
		tr.do("workload.sample_dests", func() int64 {
			dests = workload.SampleDests(routes, spec.SampleLookups, sim.MissRatio, sim.Seed)
			return int64(len(dests))
		})
		tr.do("rtable.probe_sample", func() int64 {
			for _, dst := range dests {
				tbl.Lookup(dst)
			}
			return int64(len(dests))
		})
		st := tbl.Stats()
		avgProbes = float64(st.Probes) / float64(st.Lookups)
		entries = tbl.Len()
		dims = rtable.MemDims{Entries: entries}
		if ms, ok := tbl.(rtable.MemSizer); ok {
			dims = ms.MemDims()
		}
	}

	cycles := model.OverheadCycles + model.PerProbeCycles*avgProbes
	required := cycles * cons.PacketRate()
	var est estimate.Estimate
	tr.do("estimate.physical", func() int64 { est = estimate.Physical(cfg, required, cons.Tech); return 1 })
	var mem estimate.TableMem
	tr.do("estimate.table_sram", func() int64 { mem = estimate.TableSRAM(spec.Kind, dims, required, cons.Tech); return 1 })
	est.AreaMM2 += mem.AreaMM2
	est.PowerW += mem.PowerW
	est.Breakdown = append(est.Breakdown, estimate.ModuleCost{
		Module: "tableSRAM", Count: 1, AreaMM2: mem.AreaMM2, PowerW: mem.PowerW})
	return core.Metrics{
		Kind: spec.Kind, Config: cfg,
		CyclesPerPacket: cycles, RequiredClockHz: required, Est: est,
		ClockFeasible: est.Feasible,
		MeetsPower:    est.PowerW <= cons.MaxPowerW,
		MeetsArea:     est.AreaMM2 <= cons.MaxAreaMM2,
		CAMChipPowerW: mem.CAMPowerW, TableEntries: entries,
		AvgProbesPerPacket: avgProbes, TableMem: &mem, ScaleModel: &model,
	}, nil
}

const largeTableReps = 2

func traceLargeTable(seed uint64) (*traceOut, error) {
	insts := largeTableInstances(seed)
	ctx := dse.WithTiming(context.Background())
	// The tracer follows one goroutine, so the stepped sweep is serial;
	// its opaque counterpart is the same sweep at workers=1, which also
	// gives dse.instances_per_s_w1.
	var serial []dse.Point
	opaque := &instance{
		iter: func() (err error) {
			serial, err = dse.Sweep(context.Background(), insts, 1)
			return err
		},
		settle: func() iterOut { return summarizeSweep(serial) },
	}
	out, tr, err := runLeg("largetable", largeTableReps, false, opaque, func(tr *tracer) (iterOut, error) {
		points := make([]dse.Point, len(insts))
		for i, inst := range insts {
			tr.inst = inst.Label
			m, err := steppedEvaluateScaled(tr, inst.Cfg, *inst.Scale, inst.Cons, inst.Sim)
			points[i] = dse.Point{X: inst.X, Metrics: m}
			if err != nil {
				points[i] = dse.Point{X: inst.X, Err: err.Error(),
					Metrics: core.Metrics{Kind: inst.Cfg.Table, Config: inst.Cfg}}
			}
		}
		return summarizeSweep(points), nil
	})
	if err != nil {
		return nil, err
	}

	n := runtime.NumCPU()
	var timed []dse.Point
	tr.do("dse.sweep_wN", func() int64 {
		timed, err = dse.Sweep(ctx, insts, n)
		return int64(len(insts))
	})
	if err != nil {
		return nil, err
	}
	for rep := 0; rep < 3; rep++ {
		tr.do("dse.export", func() int64 {
			if err = dse.WriteJSON(io.Discard, timed); err == nil {
				err = dse.WriteCSV(io.Discard, timed)
			}
			return int64(len(timed))
		})
		if err != nil {
			return nil, err
		}
	}
	walls := make([]float64, len(timed))
	for i, p := range timed {
		walls[i] = float64(p.WallNS) / 1e3
	}
	walls = sortedCopy(walls)
	w1 := float64(largeTableReps*len(insts)) / out.OpaqueS
	wN := 1e9 / tr.per("dse.sweep_wN")
	out.Metrics["dse.instances_per_s_w1"] = w1
	out.Metrics["dse.instances_per_s_wN"] = wN
	out.Metrics["dse.parallel_efficiency"] = wN / (float64(n) * w1)
	out.Metrics["dse.instance_wall_p50_us"] = median(walls)
	out.Metrics["dse.instance_wall_max_us"] = walls[len(walls)-1]
	out.Metrics["dse.export_us"] = tr.meanUS("dse.export")
	out.Metrics["estimate.table_sram_us"] = tr.meanUS("estimate.table_sram")

	scaled, _, _ := tr.total("core.evaluate_scaled")
	share := func(names ...string) float64 {
		var ns int64
		for _, name := range names {
			d, _, _ := tr.total(name)
			ns += d
		}
		return float64(ns) / float64(scaled)
	}
	out.Metrics["core.scaled_anchor_share"] = share("core.evaluate") // only the anchors evaluate cycle-accurately here
	out.Metrics["core.scaled_build_share"] = share("workload.generate_large", "rtable.build_large")
	out.Metrics["core.scaled_probe_share"] = share("workload.sample_dests", "rtable.probe_sample")
	return out, out.seal(tr)
}

// ---- rtable-churn ----

const churnTraceIters = 40

// heapInUse is the live heap after a collection.
func heapInUse() (live, mallocs uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.Mallocs
}

func traceChurn(seed uint64) (*traceOut, error) {
	tr := newTracer("rtable-churn")
	out := &traceOut{Workload: "rtable-churn", Metrics: map[string]float64{}}

	var routes []rtable.Route
	var dests []bits.Word128
	var stream []workload.ChurnOp
	tr.do("workload.gen_large", func() int64 {
		routes, dests, stream = churnInputs(seed)
		return int64(len(routes))
	})
	out.Metrics["workload.gen_large_s"] = float64(tr.spans[0].dur()) / 1e9

	// Set-up, one table at a time, with the allocator read at the same
	// boundaries as the clock.
	c := &churnState{dests: dests, stream: stream}
	for _, k := range churnKinds {
		p := "rtable." + k.String() + "."
		live0, mallocs0 := heapInUse()
		tbl := rtable.New(k)
		var err error
		tr.do(p+"build", func() int64 {
			err = rtable.InsertAll(tbl, routes)
			return int64(len(routes))
		})
		if err != nil {
			return nil, fmt.Errorf("build %v: %w", k, err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		live1, _ := heapInUse()
		c.tables = append(c.tables, tbl)
		out.Metrics[p+"build_ns_per_route"] = tr.per(p + "build")
		out.Metrics[p+"build_allocs_per_route"] = float64(ms.Mallocs-mallocs0) / float64(len(routes))
		out.Metrics[p+"heap_bytes_per_route"] = (float64(live1) - float64(live0)) / float64(len(routes))
	}
	fails := c.checkBuilt()
	for _, tbl := range c.tables {
		st := tbl.Stats()
		out.Metrics["rtable."+tbl.Kind().String()+".probes_per_lookup"] = float64(st.Probes) / float64(st.Lookups)
	}

	// The iteration is the harness's own code either way; the opaque
	// twin runs it without spans, on the same tables, turn about.
	c.iterate(plainBatch) // warm-up
	for i := 0; i < churnTraceIters; i++ {
		t0 := time.Now()
		if _, exhausted := c.iterate(plainBatch); exhausted {
			return nil, errStreamExhausted
		}
		out.OpaqueS += time.Since(t0).Seconds()

		tr.inst = fmt.Sprintf("iter%d", i)
		root := tr.begin(rootSpan)
		ops, exhausted := c.iterate(tr.do)
		tr.end(root, ops)
		if exhausted {
			return nil, errStreamExhausted
		}
		out.TracedS += float64(tr.spans[root].dur()) / 1e9
		out.Ops += ops
	}
	fails = append(fails, c.checkChurned()...)
	out.Failed, out.Failures = int64(len(fails)), fails
	out.Digest, out.OpaqueDigest = c.digest, c.digest
	for _, k := range churnKinds {
		p := "rtable." + k.String() + "."
		out.Metrics[p+"lookup_ns"] = tr.per(p + "lookup")
		if updatable(k) {
			out.Metrics[p+"update_ns"] = tr.per(p + "update")
		}
	}
	return out, out.seal(tr)
}

// ---- fault.RunSoak, step by step ----

type soakFate struct {
	action router.Action
	iface  int
}

// steppedSoak mirrors fault.RunSoak campaign by campaign with a span per
// layer call. Besides the report it returns what RunSoak does not: the
// simulated cycles executed and cycles/packet summed over campaigns.
func steppedSoak(tr *tracer, o fault.SoakOptions) (rep fault.SoakReport, cycles int64, cyclesPerPacket float64, err error) {
	cfg := fu.Config3Bus1FU(rtable.BalancedTree)
	const ifaces = 4
	rep = fault.SoakReport{Campaigns: o.Campaigns, Mutations: map[string]int64{}}
	for c := 0; c < o.Campaigns; c++ {
		tr.inst = fmt.Sprintf("campaign%d", c)
		root := tr.begin("fault.campaign")
		seed := o.Seed + uint64(c)*0x9e3779b97f4a7c15
		var routes []rtable.Route
		tr.do("workload.generate_routes", func() int64 {
			routes = workload.GenerateRoutes(workload.TableSpec{Entries: o.Entries, Ifaces: ifaces, Seed: seed})
			return int64(len(routes))
		})
		gtbl, ttbl := rtable.New(cfg.Table), rtable.New(cfg.Table)
		tr.do("rtable.insert_all", func() int64 {
			if err = rtable.InsertAll(gtbl, routes); err == nil {
				err = rtable.InsertAll(ttbl, routes)
			}
			return int64(2 * len(routes))
		})
		var pkts []workload.Packet
		if err == nil {
			tr.do("workload.generate_traffic", func() int64 {
				pkts, err = workload.GenerateTraffic(routes, workload.TrafficSpec{
					Packets: o.Packets, SizeBytes: 128, MissRatio: 0.1, HopLimitOneRatio: 0.05, Seed: seed})
				return int64(len(pkts))
			})
		}
		var inj *fault.Injector
		if err == nil {
			tr.do("fault.mutate", func() int64 {
				if inj, err = fault.ParseSpec(o.Spec, seed^0xda942042e4dd58b5); err != nil {
					return 0
				}
				for i := range pkts {
					pkts[i].Data = inj.Apply(pkts[i].Data)
				}
				return int64(len(pkts))
			})
		}
		g := router.NewGolden(gtbl, ifaces)
		var taco *router.TACO
		if err == nil {
			tr.do("router.new_taco", func() int64 { taco, err = router.NewTACO(cfg, ttbl, ifaces); return 1 })
		}
		if err == nil {
			taco.EnableDropAudit()
			tr.do("tta.compile", func() int64 { err = taco.UseCompiled(); return 1 })
		}
		if err != nil {
			tr.end(root, 0)
			return rep, 0, 0, fmt.Errorf("campaign %d: %w", c, err)
		}
		budget := int64(o.Packets) * int64(o.Entries+64) * 64

		delivered := int64(0)
		tr.do("linecard.deliver", func() int64 {
			for i, p := range pkts {
				if taco.Deliver(i%ifaces, linecard.Datagram{Data: p.Data, Seq: p.Seq}) {
					delivered++
				}
			}
			return int64(len(pkts))
		})
		want := make(map[int64]soakFate, len(pkts))
		wantDrops := make([]obs.DropCounters, ifaces)
		tr.do("router.golden_process", func() int64 {
			for i, p := range pkts {
				dec, _ := g.Process(p.Data)
				f := soakFate{action: dec.Action, iface: -1}
				if dec.Action == router.Forward {
					f.iface = dec.OutIface
				} else if dec.Action == router.Drop {
					wantDrops[i%ifaces].Add(dec.Reason)
				}
				want[p.Seq] = f
			}
			return int64(len(pkts))
		})
		rep.Packets += int64(len(pkts))
		rep.Delivered += delivered

		tr.do("tta.run.compiled", func() int64 {
			err = taco.Run(delivered, budget)
			return taco.Machine.Stats().Cycles
		})
		if err != nil {
			tr.end(root, int64(len(pkts)))
			if errors.Is(err, router.ErrStall) {
				rep.Stalls++
				err = nil
				continue
			}
			return rep, 0, 0, fmt.Errorf("campaign %d: %w", c, err)
		}
		cycles += taco.Machine.Stats().Cycles
		cyclesPerPacket += taco.CyclesPerPacket()
		tr.do("router.finalize_audit", func() int64 { taco.FinalizeDropAudit(); return 1 })
		rep.Unexplained += taco.UnexplainedDrops()

		got := make(map[int64]soakFate, len(pkts))
		for i := 0; i < ifaces; i++ {
			for _, d := range taco.Outputs(i) {
				got[d.Seq] = soakFate{action: router.Forward, iface: i}
				rep.Forwarded++
			}
		}
		for _, d := range taco.LocalQueue() {
			got[d.Seq] = soakFate{action: router.Local, iface: -1}
			rep.Local++
		}
		for _, p := range pkts {
			gf, ok := got[p.Seq]
			if !ok {
				gf = soakFate{action: router.Drop, iface: -1}
				rep.Dropped++
			}
			if want[p.Seq] != gf {
				rep.Mismatches++
			}
		}
		for i, st := range taco.QueueStats() {
			rep.Drops.Merge(st.Drops)
			if i < ifaces && st.Drops != wantDrops[i] {
				rep.Mismatches++
			}
		}
		for name, n := range inj.Counts() {
			rep.Mutations[name] += n
		}
		tr.end(root, int64(len(pkts)))
	}
	return rep, cycles, cyclesPerPacket, nil
}

const (
	soakReps      = 5
	forensicsReps = 3
)

func traceRouterFaults(seed uint64, tmp string) (*traceOut, error) {
	opts := soakOptions(seed)
	opaque, err := setupRouterFaults(seed)
	if err != nil {
		return nil, err
	}
	var rep fault.SoakReport
	var cpp float64
	out, tr, err := runLeg("router-faults", soakReps, true, opaque, func(tr *tracer) (iterOut, error) {
		var err error
		rep, _, cpp, err = steppedSoak(tr, opts)
		return summarizeSoak(rep), err
	})
	if err != nil {
		return nil, err
	}
	pktNS := func(names ...string) float64 {
		var ns float64
		for _, name := range names {
			d, _, _ := tr.total(name)
			ns += float64(d)
		}
		return ns / float64(soakReps*rep.Packets)
	}
	out.Metrics["linecard.deliver_ns_per_pkt"] = tr.per("linecard.deliver")
	out.Metrics["router.golden_ns_per_pkt"] = tr.per("router.golden_process")
	out.Metrics["router.taco_ns_per_pkt"] = pktNS("linecard.deliver", "tta.run.compiled")
	out.Metrics["router.taco_golden_ratio"] = pktNS("linecard.deliver", "tta.run.compiled") / tr.per("router.golden_process")
	out.Metrics["fault.mutate_ns_per_pkt"] = tr.per("fault.mutate")
	var mutations int64
	for _, n := range rep.Mutations {
		mutations += n
	}
	out.Metrics["fault.mutated_ratio"] = float64(mutations) / float64(rep.Packets)
	out.Metrics["sim.router-faults.cycles_per_packet"] = cpp

	// Forensics round trip, outside the iteration: one evaluation with a
	// starved watchdog budget captures a bundle; load, replay, check.
	sim := table1Sim(seed)
	sim.MaxCyclesPerPacket = 8
	sim.ForensicsDir = tmp
	for rep := 0; rep < forensicsReps; rep++ {
		var evalErr error
		tr.do("forensics.capture", func() int64 {
			_, evalErr = core.Evaluate(fu.Config3Bus1FU(rtable.BalancedTree), core.PaperConstraints(), sim)
			return 1
		})
		path := forensics.BundlePath(evalErr)
		if path == "" {
			return nil, fmt.Errorf("forensics: starved evaluation captured no bundle (err: %v)", evalErr)
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		out.Metrics["forensics.bundle_bytes"] = float64(st.Size())
		var b *forensics.Bundle
		tr.do("forensics.load", func() int64 { b, err = forensics.Load(path); return 1 })
		if err != nil {
			return nil, err
		}
		var res *forensics.ReplayResult
		tr.do("forensics.replay", func() int64 { res, err = forensics.Replay(b, forensics.ReplayOptions{}); return 1 })
		if err != nil {
			return nil, err
		}
		if err := forensics.CheckReproduction(b, res); err != nil {
			out.Failed++
			out.Failures = append(out.Failures, "forensics: bundle did not reproduce: "+err.Error())
		}
	}
	out.Metrics["forensics.capture_us"] = tr.meanUS("forensics.capture")
	out.Metrics["forensics.load_us"] = tr.meanUS("forensics.load")
	out.Metrics["forensics.replay_us"] = tr.meanUS("forensics.replay")
	return out, out.seal(tr)
}

// ---- mesh-chaos ----

const (
	steadyTicks    = 50
	convergeBudget = 1000
	ripngResponses = 200
)

// steadyRun is what one cold-started, converged, then idling mesh
// measured at a given worker count.
type steadyRun struct {
	newMeshS, convergeS float64
	convergeTicks       int64
	// ctrlFrames counts control frames sent during the steady ticks.
	ctrlFrames int64
	// nodeTicksPerS is the steady-state rate.
	nodeTicksPerS float64
}

// steadyMesh builds a mesh at the given worker count, converges it and
// runs steadyTicks more, a span per phase.
func steadyMesh(tr *tracer, topo tnet.Topology, seed uint64, workers int) (steadyRun, error) {
	var (
		run steadyRun
		m   *tnet.Mesh
		err error
	)
	id := tr.begin("net.new_mesh")
	m, err = tnet.NewMesh(topo, meshOptions(seed, workers))
	tr.end(id, int64(topo.N))
	if err != nil {
		return run, err
	}
	run.newMeshS = float64(tr.spans[id].dur()) / 1e9

	id = tr.begin("net.initial_converge")
	ticks, ok := m.RunUntilConverged(convergeBudget)
	tr.end(id, ticks*int64(topo.N))
	if !ok {
		return run, fmt.Errorf("mesh did not converge in %d ticks: %s", convergeBudget, m.Divergence())
	}
	run.convergeS, run.convergeTicks = float64(tr.spans[id].dur())/1e9, ticks

	sent := func() int64 {
		c := m.CtrlTotals()
		return c.LinkDelivered + c.LostDown + c.LostRandom
	}
	before := sent()
	id = tr.begin("net.steady")
	m.RunTicks(steadyTicks)
	tr.end(id, steadyTicks*int64(topo.N))
	run.ctrlFrames = sent() - before
	run.nodeTicksPerS = float64(steadyTicks*topo.N) / (float64(tr.spans[id].dur()) / 1e9)
	return run, nil
}

// ripngRTENS times full 70-RTE responses through a fresh Engine each:
// every RTE is a new prefix, so each one installs a route.
func ripngRTENS(tr *tracer, seed uint64) (float64, error) {
	rng := workload.NewRNG(seed ^ 0x71706e67)
	src := ipv6.Addr{Hi: 0xfe80 << 48, Lo: 1}
	for r := 0; r < ripngResponses; r++ {
		pkt := ripng.Packet{Command: ripng.CommandResponse}
		for i := 0; i < ripng.MaxRTEsPerPacket; i++ {
			a := rng.Word128()
			a.Hi = a.Hi&^(uint64(0xf)<<60) | uint64(2)<<60
			pkt.RTEs = append(pkt.RTEs, ripng.RTE{Prefix: bits.MakePrefix(a, 48), Metric: uint8(1 + rng.Intn(14))})
		}
		e := ripng.NewEngine(rtable.New(rtable.Sequential), []ripng.Iface{{LinkLocal: ipv6.Addr{Hi: 0xfe80 << 48, Lo: 2}, Cost: 1}}, 0)
		var err error
		tr.do("ripng.receive", func() int64 { err = e.Receive(0, src, pkt); return int64(len(pkt.RTEs)) })
		if err != nil {
			return 0, err
		}
		if e.RouteCount() != len(pkt.RTEs) {
			return 0, fmt.Errorf("ripng: engine installed %d of %d RTEs", e.RouteCount(), len(pkt.RTEs))
		}
	}
	return tr.per("ripng.receive"), nil
}

func traceMeshChaos(seed uint64) (*traceOut, error) {
	topo, err := tnet.Generate("fattree", meshArity, seed)
	if err != nil {
		return nil, err
	}
	opaque, err := setupMeshChaos(seed)
	if err != nil {
		return nil, err
	}
	// RunCampaign is one public call, so the traced iteration is the
	// opaque one with its two calls bracketed; the phases inside are
	// measured on separate meshes below.
	var rep *tnet.CampaignReport
	out, tr, err := runLeg("mesh-chaos", 1, false, opaque, func(tr *tracer) (iterOut, error) {
		var m *tnet.Mesh
		var err error
		tr.do("net.new_mesh", func() int64 {
			m, err = tnet.NewMesh(topo, meshOptions(seed, runtime.NumCPU()))
			return int64(topo.N)
		})
		if err != nil {
			return iterOut{}, err
		}
		tr.do("net.run_campaign", func() int64 {
			rep = tnet.RunCampaign(m, campaignOptions())
			return int64(rep.Nodes) * m.Now()
		})
		return summarizeCampaign(rep, m.Now()), nil
	})
	if err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	wN, err := steadyMesh(tr, topo, seed, n)
	if err != nil {
		return nil, err
	}
	w1 := wN
	if n > 1 {
		if w1, err = steadyMesh(tr, topo, seed, 1); err != nil {
			return nil, err
		}
	}
	out.Metrics["net.newmesh_s"] = wN.newMeshS
	out.Metrics["net.initial_converge_s"] = wN.convergeS
	out.Metrics["net.steady_node_ticks_per_s"] = wN.nodeTicksPerS
	out.Metrics["net.parallel_efficiency"] = wN.nodeTicksPerS / (float64(n) * w1.nodeTicksPerS)
	out.Metrics["net.initial_converge_ticks"] = float64(wN.convergeTicks)
	out.Metrics["net.ctrl_frames_per_tick"] = float64(wN.ctrlFrames) / steadyTicks
	out.Metrics["net.taco_hops"] = float64(rep.TACOHops)
	if out.Metrics["ripng.rte_ns"], err = ripngRTENS(tr, seed); err != nil {
		return nil, err
	}
	return out, out.seal(tr)
}

// traceSummary renders a leg's layer shares for the human report.
func traceSummary(t *traceOut) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-16s trace_overhead_ratio %.3f (traced %.3fs / opaque %.3fs); self-time share:",
		t.Workload, t.TraceOverheadRatio, t.TracedS, t.OpaqueS)
	for _, l := range sortedKeys(t.Shares) {
		fmt.Fprintf(&b, " %s %.1f%%", l, 100*t.Shares[l])
	}
	return b.String()
}

package main

import (
	"fmt"
	"regexp"
	"strings"

	"taco/internal/rtable"
)

// This file is the benchmark's vocabulary: the six workloads, the ten
// end-to-end metrics and the per-layer ledger, by the names later issues
// cite. BENCHMARK.json at the repository root repeats the subset the
// driver polices; bench_test.go keeps the two in step.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	// Op is what one operation is; ops_per_s counts these.
	Op string
	// Workers is "1" or "nproc": the parallelism handed to the engine
	// under test. The load generator is always one goroutine.
	Workers string
	// Why is the one-sentence reason BENCHMARK.json carries.
	Why string
}

var workloads = []workloadSpec{
	{"table1", "evaluated instance", "1",
		"the paper's headline command: nine Table 1 instances on the interpreter path, 64 packets, 100 routes; tta interpreter dominates"},
	{"table1-fast-obs", "evaluated instance", "1",
		"same nine instances on the compiled path with counters and flight recorder armed, 512 packets; an interpreter-only gain must not show here"},
	{"largetable", "evaluated instance", "nproc",
		"kind x {1e4,1e5} scaled sweep at workers=nproc; rtable bulk build and route generation dominate, so arena/flat node storage must show here"},
	{"rtable-churn", "Lookup/Insert/Delete call", "1",
		"lookups beside point updates on five pre-built 1e5-route tables; build cost sits in setup_s, so work moved into build shows as a trade"},
	{"router-faults", "generated datagram", "1",
		"16 short differential soak campaigns, golden vs compiled TACO under fault injection; per-campaign NewTACO+Compile is a large share"},
	{"mesh-chaos", "node-tick", "nproc",
		"fat-tree-14 RIPng mesh chaos campaign at workers=nproc; net, ripng and fault.Link do the work, so a tta or rtable gain must not show"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Metric kinds: the two kinds of number are never mixed.
const (
	kindHost      = "host"      // how fast the host produces results; noisy
	kindCount     = "count"     // host-side count (allocations); near-exact
	kindSimulated = "simulated" // the paper's output; repeats exactly
	kindCheck     = "check"     // correctness ratio
)

// e2eSpec declares one end-to-end metric.
type e2eSpec struct {
	Name, Unit, Kind string
	// Better is "higher" or "lower".
	Better string
	// Bound is the share of the reference median by which the metric may
	// worsen before -compare and -selfcheck count a regression; 0 means
	// exact. It guards reruns of one seed, where only the host varies.
	Bound float64
	// DriverBound is the bound BENCHMARK.json carries for the metrics
	// the driver polices (0 for the others). The driver's ten runs each
	// take another seed, so it must absorb the spread across generated
	// inputs as well (README "Measured spread").
	DriverBound float64
	// Floor is an absolute difference that never counts (setup_s).
	Floor float64
	// Applies lists the workloads that report the metric; nil means all.
	// A metric that does not apply is omitted, never reported as 0.
	Applies []string
}

// policed reports whether BENCHMARK.json hands the metric to the driver:
// the ones every workload reports and that are never 0.
func (m e2eSpec) policed() bool { return m.DriverBound > 0 }

var simWorkloads = []string{"table1", "table1-fast-obs", "router-faults"}

var e2eMetrics = []e2eSpec{
	{Name: "setup_s", Unit: "s", Kind: kindHost, Better: "lower", Bound: 0.20, Floor: 0.05, DriverBound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Kind: kindHost, Better: "higher", Bound: 0.10, DriverBound: 0.25},
	{Name: "iter_p50_ms", Unit: "ms", Kind: kindHost, Better: "lower", Bound: 0.10, DriverBound: 0.25},
	{Name: "sim_cycles_per_s", Unit: "1/s", Kind: kindHost, Better: "higher", Bound: 0.10, Applies: simWorkloads},
	{Name: "allocs_per_op", Unit: "count", Kind: kindCount, Better: "lower", Bound: 0.02, DriverBound: 0.25},
	{Name: "alloc_bytes_per_op", Unit: "bytes", Kind: kindCount, Better: "lower", Bound: 0.02, DriverBound: 0.10},
	{Name: "peak_rss_mb", Unit: "MiB", Kind: kindHost, Better: "lower", Bound: 0.10, DriverBound: 0.25},
	{Name: "failed_ratio", Unit: "ratio", Kind: kindCheck, Better: "lower", Bound: 0},
	{Name: "sim_cycles_per_packet", Unit: "cycles", Kind: kindSimulated, Better: "lower", Bound: 0, Applies: simWorkloads},
	{Name: "paper_clock_err", Unit: "log2", Kind: kindSimulated, Better: "lower", Bound: 0,
		Applies: []string{"table1", "table1-fast-obs"}},
}

func (m e2eSpec) appliesTo(workload string) bool {
	if m.Applies == nil {
		return true
	}
	for _, w := range m.Applies {
		if w == workload {
			return true
		}
	}
	return false
}

func findE2E(name string) (e2eSpec, bool) {
	for _, m := range e2eMetrics {
		if m.Name == name {
			return m, true
		}
	}
	return e2eSpec{}, false
}

// layerSpec declares one per-layer metric of the traced run.
type layerSpec struct {
	Name, Unit, Kind, Better string
	// On is the workload whose traced leg measures it. Where a layer
	// runs on several workloads the ledger takes one of them (the one
	// the metric is expected to move); the span file still carries the
	// layer's spans for every workload.
	On string
	// Moves lists the "metric@workload" pairs a change to this layer
	// metric should move; empty means none expected.
	Moves []string
}

// churnKinds are the five backends of the rtable-churn workload.
var churnKinds = []rtable.Kind{
	rtable.BalancedTree, rtable.Trie, rtable.Multibit, rtable.TiledTCAM, rtable.Compressed,
}

// updatable reports whether rtable-churn plays the update stream into k;
// the balanced tree rebuilds per update and gets lookups only.
func updatable(k rtable.Kind) bool { return k != rtable.BalancedTree }

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerSpec {
	h := func(name, unit, on string, moves ...string) layerSpec {
		return layerSpec{Name: name, Unit: unit, Kind: kindHost, Better: "lower", On: on, Moves: moves}
	}
	sim := func(name, unit, on string) layerSpec {
		return layerSpec{Name: name, Unit: unit, Kind: kindSimulated, Better: "lower", On: on}
	}
	up := func(l layerSpec) layerSpec { l.Better = "higher"; return l }

	ls := []layerSpec{
		h("workload.gen_large_s", "s", "rtable-churn", "setup_s@rtable-churn", "ops_per_s@largetable"),
	}
	buildMoves := []string{"ops_per_s@largetable", "allocs_per_op@largetable", "peak_rss_mb@largetable", "setup_s@rtable-churn"}
	for _, k := range churnKinds {
		p := "rtable." + k.String() + "."
		ls = append(ls,
			h(p+"build_ns_per_route", "ns", "rtable-churn", buildMoves...),
			layerSpec{Name: p + "build_allocs_per_route", Unit: "count", Kind: kindCount, Better: "lower",
				On: "rtable-churn", Moves: buildMoves},
			layerSpec{Name: p + "heap_bytes_per_route", Unit: "bytes", Kind: kindCount, Better: "lower",
				On: "rtable-churn", Moves: buildMoves},
			h(p+"lookup_ns", "ns", "rtable-churn", "ops_per_s@rtable-churn"),
		)
		if updatable(k) {
			ls = append(ls, h(p+"update_ns", "ns", "rtable-churn", "ops_per_s@rtable-churn"))
		}
		ls = append(ls, sim(p+"probes_per_lookup", "count", "rtable-churn"))
	}
	ls = append(ls,
		h("fu.machine_build_us", "us", "table1", "ops_per_s@table1", "ops_per_s@router-faults"),
		h("program.forwarding_us", "us", "table1", "ops_per_s@table1", "ops_per_s@router-faults"),
		h("tta.compile_us", "us", "table1-fast-obs", "ops_per_s@router-faults"),
		h("tta.interp_ns_per_cycle", "ns", "table1", "sim_cycles_per_s@table1", "ops_per_s@table1"),
		h("tta.compiled_ns_per_cycle", "ns", "table1-fast-obs", "sim_cycles_per_s@table1-fast-obs", "sim_cycles_per_s@router-faults"),
		h("tta.compiled_obs_ns_per_cycle", "ns", "table1-fast-obs", "sim_cycles_per_s@table1-fast-obs"),
		h("tta.compiled_rec_ns_per_cycle", "ns", "table1-fast-obs", "sim_cycles_per_s@table1-fast-obs"),
		h("tta.counter_overhead_ratio", "ratio", "table1-fast-obs", "ops_per_s@table1-fast-obs"),
		h("tta.recorder_overhead_ratio", "ratio", "table1-fast-obs", "ops_per_s@table1-fast-obs"),
		h("linecard.deliver_ns_per_pkt", "ns", "router-faults", "ops_per_s@router-faults"),
		h("router.golden_ns_per_pkt", "ns", "router-faults", "ops_per_s@router-faults"),
		h("router.taco_ns_per_pkt", "ns", "router-faults", "ops_per_s@router-faults"),
		h("router.taco_golden_ratio", "ratio", "router-faults", "ops_per_s@router-faults"),
		h("fault.mutate_ns_per_pkt", "ns", "router-faults", "ops_per_s@router-faults"),
		up(sim("fault.mutated_ratio", "ratio", "router-faults")),
		h("estimate.physical_us", "us", "table1"),
		h("estimate.table_sram_us", "us", "largetable"),
		h("core.evaluate_self_us", "us", "table1", "ops_per_s@table1"),
		h("core.scaled_anchor_share", "ratio", "largetable"),
		h("core.scaled_build_share", "ratio", "largetable"),
		h("core.scaled_probe_share", "ratio", "largetable"),
		up(h("dse.instances_per_s_w1", "1/s", "largetable", "ops_per_s@largetable")),
		up(h("dse.instances_per_s_wN", "1/s", "largetable", "ops_per_s@largetable")),
		up(h("dse.parallel_efficiency", "ratio", "largetable", "ops_per_s@largetable")),
		h("dse.instance_wall_p50_us", "us", "largetable", "ops_per_s@largetable"),
		h("dse.instance_wall_max_us", "us", "largetable", "ops_per_s@largetable", "iter_p50_ms@largetable"),
		h("dse.export_us", "us", "largetable"),
		h("ripng.rte_ns", "ns", "mesh-chaos", "ops_per_s@mesh-chaos"),
		h("net.newmesh_s", "s", "mesh-chaos", "ops_per_s@mesh-chaos", "iter_p50_ms@mesh-chaos"),
		h("net.initial_converge_s", "s", "mesh-chaos", "ops_per_s@mesh-chaos", "iter_p50_ms@mesh-chaos"),
		up(h("net.steady_node_ticks_per_s", "1/s", "mesh-chaos", "ops_per_s@mesh-chaos", "iter_p50_ms@mesh-chaos")),
		up(h("net.parallel_efficiency", "ratio", "mesh-chaos", "ops_per_s@mesh-chaos")),
		sim("net.initial_converge_ticks", "count", "mesh-chaos"),
		sim("net.ctrl_frames_per_tick", "count", "mesh-chaos"),
		up(sim("net.taco_hops", "count", "mesh-chaos")),
		h("forensics.capture_us", "us", "router-faults"),
		layerSpec{Name: "forensics.bundle_bytes", Unit: "bytes", Kind: kindSimulated, Better: "lower", On: "router-faults"},
		h("forensics.load_us", "us", "router-faults"),
		h("forensics.replay_us", "us", "router-faults"),
		h("obs.prom_export_us", "us", "table1-fast-obs"),
		// The simulated end-to-end values ride in the ledger too, so the
		// driver's per-layer record shows that a host-speed change left
		// them bit-identical (they apply to three workloads only, which
		// keeps them out of BENCHMARK.json's end_to_end list).
		sim("sim.table1.cycles_per_packet", "cycles", "table1"),
		sim("sim.table1-fast-obs.cycles_per_packet", "cycles", "table1-fast-obs"),
		sim("sim.router-faults.cycles_per_packet", "cycles", "router-faults"),
		sim("sim.table1.paper_clock_err", "log2", "table1"),
	)
	return ls
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkSpec validates the vocabulary: unique well-formed names, and
// every "should move" reference resolving to a declared end-to-end
// metric that applies to a declared workload.
func checkSpec() error {
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			return fmt.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
	}
	for _, m := range e2eMetrics {
		if err := name("end-to-end metric", m.Name); err != nil {
			return err
		}
		for _, w := range m.Applies {
			if _, ok := findWorkload(w); !ok {
				return fmt.Errorf("metric %s applies to unknown workload %q", m.Name, w)
			}
		}
	}
	for _, l := range layerMetrics {
		if err := name("layer metric", l.Name); err != nil {
			return err
		}
		if _, ok := findWorkload(l.On); !ok {
			return fmt.Errorf("layer metric %s is measured on unknown workload %q", l.Name, l.On)
		}
		for _, mv := range l.Moves {
			metric, workload, ok := strings.Cut(mv, "@")
			if !ok {
				return fmt.Errorf("layer metric %s: %q is not metric@workload", l.Name, mv)
			}
			m, ok := findE2E(metric)
			if !ok {
				return fmt.Errorf("layer metric %s moves unknown metric %q", l.Name, metric)
			}
			if _, ok := findWorkload(workload); !ok {
				return fmt.Errorf("layer metric %s moves %s on unknown workload %q", l.Name, metric, workload)
			}
			if !m.appliesTo(workload) {
				return fmt.Errorf("layer metric %s moves %s, which does not apply to %s", l.Name, metric, workload)
			}
		}
	}
	return nil
}

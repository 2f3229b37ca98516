package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// TestMain lets the test binary stand in for the bench binary: spawn
// re-executes os.Executable() with -child, and a process started that
// way runs main instead of the tests.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

func TestSpec(t *testing.T) {
	if err := checkSpec(); err != nil {
		t.Fatal(err)
	}
	if len(workloads) != 6 || len(e2eMetrics) != 10 {
		t.Fatalf("want 6 workloads and 10 end-to-end metrics, have %d and %d", len(workloads), len(e2eMetrics))
	}
	for _, m := range e2eMetrics {
		if m.policed() && m.Applies != nil {
			t.Errorf("%s is policed but does not apply to every workload", m.Name)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.policed() && m.DriverBound < m.Bound {
			t.Errorf("%s: the cross-seed bound %g is tighter than the same-seed bound %g", m.Name, m.DriverBound, m.Bound)
		}
	}
}

// benchmarkJSON is the driver's schema, exactly.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []bjWorkload  `json:"workloads"`
	EndToEnd   []bjEndToEnd  `json:"end_to_end"`
	PerLayer   []bjLayerItem `json:"per_layer"`
}
type bjWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}
type bjEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}
type bjLayerItem struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkFromSpec() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, bjWorkload{w.Name, w.Why})
	}
	for _, m := range e2eMetrics {
		if m.policed() {
			b.EndToEnd = append(b.EndToEnd, bjEndToEnd{m.Name, m.Unit, m.Better, m.DriverBound})
		}
	}
	for _, l := range layerMetrics {
		b.PerLayer = append(b.PerLayer, bjLayerItem{l.Name, l.Unit, l.Better})
	}
	return b
}

// TestBenchmarkJSON keeps the root BENCHMARK.json in step with spec.go
// (go test ./bench -run BenchmarkJSON -update rewrites it) and inside the
// driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkFromSpec()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; run go test ./bench -run BenchmarkJSON -update\n got %+v\nwant %+v", got, want)
	}
	if len(data) > 64<<10 || len(got.Workloads) > 8 || len(got.EndToEnd) > 16 || len(got.PerLayer) > 128 {
		t.Errorf("BENCHMARK.json exceeds the driver's limits: %d bytes, %d workloads, %d end-to-end, %d per-layer",
			len(data), len(got.Workloads), len(got.EndToEnd), len(got.PerLayer))
	}
	hasSetup := false
	for _, m := range got.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, w := range got.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

func TestQuartilesAndPercentiles(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5}, // the exclusive method extrapolates
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want 5.5/5.5", s)
	}

	ref := make([]float64, 1000)
	for i := range ref {
		ref[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := percentile(ref, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{{5, 0, false}, {99, 0, false}, {100, 90, true}, {250, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		if p, ok := tailPercentile(tc.n); p != tc.p || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, p, ok, tc.p, tc.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100]
	//   a [10,40]            nested: a1 [15,25]
	//   b [40,60]            sibling, back to back with a
	//   c [50,80]            overlaps b by 10
	//   d [90,120]           runs past the root: clipped to [90,100]
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.iteration", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "tta.a", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 1, Name: "fu.a1", StartNS: 15, EndNS: 25},
		{ID: 3, Parent: 0, Name: "rtable.b", StartNS: 40, EndNS: 60},
		{ID: 4, Parent: 0, Name: "rtable.c", StartNS: 50, EndNS: 80},
		{ID: 5, Parent: 0, Name: "net.d", StartNS: 90, EndNS: 120},
	}
	want := []int64{
		100 - (30 + 20 + 20 + 10), // a, b, the part of c beyond b, clipped d
		30 - 10,
		10,
		20,
		30,
		30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if err := checkNesting(spans); err == nil || !strings.Contains(err.Error(), "net.d") {
		t.Errorf("checkNesting = %v, want the overrunning net.d reported", err)
	}
	if err := checkNesting(spans[:5]); err != nil {
		t.Errorf("checkNesting(well nested) = %v", err)
	}

	shares := layerShares(spans[:5], "bench.iteration")
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	// b and c overlap, so their self times double-count 10 of the 100.
	if math.Abs(sum-1.1) > 1e-12 || shares["tta"] != 0.2 || shares["fu"] != 0.1 {
		t.Errorf("layerShares = %v (sum %g)", shares, sum)
	}

	tr := newTracer("w")
	root := tr.begin("bench.iteration")
	tr.do("tta.run", func() int64 { return 7 })
	tr.end(root, 1)
	if tr.spans[1].Parent != root || tr.spans[1].Count != 7 || tr.spans[0].Parent != -1 {
		t.Errorf("tracer nesting: %+v", tr.spans)
	}
	if err := checkNesting(tr.spans); err != nil {
		t.Error(err)
	}
}

// synthPass builds a pass with the given throughput and set-up time.
func synthPass(opsPerS, setupS float64) passResult {
	return passResult{Workload: "rtable-churn", SetupS: setupS, IterMS: []float64{1000}, TimedS: 1,
		Ops: int64(opsPerS), Mallocs: uint64(opsPerS) / 20, AllocBytes: uint64(opsPerS) * 5, PeakRSSMB: 100, Digest: "d"}
}

func TestSelfcheckAndJudge(t *testing.T) {
	odd, even := splitOddEven([]passResult{synthPass(1, 0), synthPass(2, 0), synthPass(3, 0), synthPass(4, 0), synthPass(5, 0)})
	if len(odd) != 3 || len(even) != 2 || odd[1].Ops != 3 || even[1].Ops != 4 {
		t.Fatalf("splitOddEven: odd %d even %d", len(odd), len(even))
	}

	ops, _ := findE2E("ops_per_s")
	setup, _ := findE2E("setup_s")
	exact, _ := findE2E("sim_cycles_per_packet")
	// Even passes 30 % slower: outside any host bound.
	var passes []passResult
	for i := 0; i < 10; i++ {
		v := 1000.0
		if i%2 == 1 {
			v = 700
		}
		passes = append(passes, synthPass(v, 0.010+0.001*float64(i)))
	}
	_, bad := selfcheckRows([]workloadResult{summarize("rtable-churn", passes)})
	if len(bad) != 1 || bad[0].Metric != "ops_per_s" {
		// setup_s differs too, but by less than its absolute floor.
		t.Errorf("selfcheck should flag ops_per_s alone, flagged %+v", bad)
	}
	// Within the bound: no failure.
	passes = passes[:0]
	for i := 0; i < 10; i++ {
		passes = append(passes, synthPass(1000+float64(i%2)*1000*ops.Bound/2, 1))
	}
	if _, bad := selfcheckRows([]workloadResult{summarize("rtable-churn", passes)}); len(bad) != 0 {
		t.Errorf("selfcheck failed within bounds: %+v", bad)
	}

	sum := func(vs ...float64) metricSummary {
		q1, q3 := quartiles(vs)
		return metricSummary{Median: median(vs), Q1: q1, Q3: q3, Values: vs}
	}
	for _, tc := range []struct {
		name string
		spec e2eSpec
		a, b metricSummary
		want string
	}{
		{"steady and slower", ops, sum(100, 101, 102), sum(70, 71, 72), verdictWorse},
		{"steady and faster", ops, sum(100, 101, 102), sum(130, 131, 132), verdictBetter},
		{"steady and equal", ops, sum(100, 101, 102), sum(99, 100, 101), verdictSame},
		{"noisy and overlapping", ops, sum(60, 100, 140), sum(50, 80, 120), verdictUnresolved},
		{"noisy but disjoint", ops, sum(60, 100, 140), sum(20, 30, 40), verdictWorse},
		{"exact, any rise is worse", exact, sum(3433.34375), sum(3433.35), verdictWorse},
		{"exact and equal", exact, sum(3433.34375), sum(3433.34375), verdictSame},
		{"set-up under the floor", setup, sum(0.010), sum(0.040), verdictSame},
	} {
		if _, got := judge(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	// Passes whose digests differ are failures of the workload.
	p1, p2 := synthPass(1000, 1), synthPass(1000, 1)
	p2.Digest = "other"
	if w := summarize("rtable-churn", []passResult{p1, p2}); w.Failed != 1 || !strings.Contains(w.Failures[0], "sim_digest") {
		t.Errorf("digest mismatch across passes not counted: %+v", w.Failures)
	}
	// A metric that does not apply is absent, not zero.
	if _, ok := summarize("rtable-churn", []passResult{p1}).Metrics["sim_cycles_per_packet"]; ok {
		t.Error("rtable-churn reports sim_cycles_per_packet")
	}
}

// TestChildPasses runs one real iteration each of table1 and
// router-faults through the child-process path, digest checks on.
func TestChildPasses(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil { // children write scratch under the current directory
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, name := range []string{"table1", "router-faults"} {
		var passes []passResult
		for i := 0; i < 2; i++ {
			var p passResult
			if err := spawn(&p, name, 7, 0.001, false); err != nil {
				t.Fatal(err)
			}
			passes = append(passes, p)
		}
		w := summarize(name, passes)
		if w.Failed != 0 || w.Attempted == 0 || w.Digest == "" {
			t.Errorf("%s: attempted %d failed %d digest %q: %v", name, w.Attempted, w.Failed, w.Digest, w.Failures)
		}
		var missing []string
		for _, m := range e2eMetrics {
			if _, ok := w.Metrics[m.Name]; ok != m.appliesTo(name) {
				missing = append(missing, m.Name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s: metrics present/absent against the spec: %v", name, missing)
		}
		line := e2eContract(w)
		if !line.Correct || len(line.Metrics) != 6 {
			t.Errorf("%s: contract line %+v", name, line)
		}
	}
}

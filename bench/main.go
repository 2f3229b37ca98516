// Command bench is the repository's one benchmark: six named workloads,
// ten end-to-end metrics and a traced per-layer run. README.md in this
// directory has the tables; BENCHMARK.json at the repository root is the
// contract the driver polices.
//
//	go run ./bench                        every workload, 5 interleaved passes
//	go run ./bench -workload table1       one workload (comma-separate for more)
//	go run ./bench -trace 1 -trace-out s.json
//	                                      the traced run: per-layer ledger, spans
//	go run ./bench -selfcheck             2·passes passes, odd vs even within bounds
//	go run ./bench -compare a.json b.json verdict per (workload, metric)
//	go run ./bench -list                  the vocabulary
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (the last selected workload's
// policed end-to-end metrics, or the whole ledger under -trace 1).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "comma-separated workloads to run (default all; see -list)")
		seed         = flag.Uint64("seed", 2003, "seed every workload derives all its inputs from")
		passes       = flag.Int("passes", 5, "passes per workload; each is a fresh child process, interleaved round-robin across workloads")
		seconds      = flag.Float64("seconds", 10, "timed seconds per workload, split evenly over the passes")
		trace        = flag.Int("trace", 0, "1 = run the traced per-layer run (all six legs, whatever -workload says) instead of the timed passes")
		spansOut     = flag.String("trace-out", "", "with -trace 1: write the spans to this file")
		out          = flag.String("o", "", "write the full results (per-pass values, quartiles, ledger) to this file")
		list         = flag.Bool("list", false, "print workload and metric names and exit")
		selfcheck    = flag.Bool("selfcheck", false, "run 2·passes passes, split them odd/even and fail if any metric's two medians differ by more than its bound")
		compare      = flag.Bool("compare", false, "compare two results files given as arguments; exits 1 on any worse verdict")
		child        = flag.Bool("child", false, "internal: run one pass (or one traced leg) of -workload in this process and print its JSON")
	)
	flag.Parse()
	if err := checkSpec(); err != nil {
		fatal(2, err)
	}

	switch {
	case *list:
		printList()
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, fmt.Errorf("-compare needs two results files"))
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *child: // here -seconds is the one pass's length
		os.Exit(runChild(*workloadFlag, *seed, *seconds, *trace == 1))
	}

	if *passes < 1 || *seconds <= 0 {
		fatal(2, fmt.Errorf("-passes and -seconds must be positive"))
	}
	selected := workloadNames()
	if *workloadFlag != "" {
		selected = strings.Split(*workloadFlag, ",")
		for _, name := range selected {
			if _, ok := findWorkload(name); !ok {
				fatal(2, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", ")))
			}
		}
	}
	res := &runResult{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), Seed: *seed, Passes: *passes, Seconds: *seconds}

	var line contractLine
	if *trace == 1 {
		line = runTraced(res, *spansOut)
	} else {
		n := *passes
		if *selfcheck {
			n *= 2
			res.Passes = n
		}
		line = runPasses(res, selected, n, *seconds/float64(*passes))
		if *selfcheck && !selfcheckOK(res) {
			line.Correct = false
		}
	}
	if *out != "" {
		if err := writeJSONFile(*out, res); err != nil {
			fatal(2, err)
		}
	}
	if err := line.print(os.Stdout); err != nil {
		fatal(2, err)
	}
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}

// runChild is the -child entry: one pass or one traced leg, JSON on
// standard output.
func runChild(name string, seed uint64, passSeconds float64, traced bool) int {
	var v any
	var err error
	if traced {
		var tmp string
		var cleanup func()
		if tmp, cleanup, err = scratchDir(); err == nil {
			v, err = runTraceLeg(name, seed, tmp)
			cleanup()
		}
	} else {
		v, err = runPass(name, seed, time.Duration(passSeconds*float64(time.Second)))
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(v)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	return 0
}

// spawn re-executes this binary as a fresh child for one workload, so
// heap, GC state and resident-set high-water mark never leak from one
// measurement into the next, and decodes its JSON into v.
func spawn(v any, name string, seed uint64, passSeconds float64, traced bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"-child", "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(passSeconds)}
	if traced {
		args = append(args, "-trace", "1")
	}
	// An interrupted or terminated harness takes its child with it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w", name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), v); err != nil {
		return fmt.Errorf("%s child output: %w", name, err)
	}
	return nil
}

// runPasses runs n passes of every selected workload, pass 1 of all of
// them, then pass 2, so a slow phase of the shared machine is spread
// over every workload instead of landing on one. It prints each
// workload's metrics and returns the contract line of the last one.
func runPasses(res *runResult, selected []string, n int, passSeconds float64) contractLine {
	passes := map[string][]passResult{}
	for pass := 0; pass < n; pass++ {
		for _, name := range selected {
			var p passResult
			if err := spawn(&p, name, res.Seed, passSeconds, false); err != nil {
				fatal(1, err)
			}
			passes[name] = append(passes[name], p)
		}
	}
	var line contractLine
	for _, name := range selected {
		w := summarize(name, passes[name])
		res.Workloads = append(res.Workloads, w)
		printWorkload(os.Stdout, w)
		line = e2eContract(w)
	}
	for _, w := range res.Workloads {
		if w.Failed > 0 {
			line.Correct = false
		}
	}
	return line
}

// selfcheckOK prints the odd-vs-even comparison and reports whether
// every metric held its bound.
func selfcheckOK(res *runResult) bool {
	all, bad := selfcheckRows(res.Workloads)
	fmt.Println("selfcheck: odd passes (a) against even passes (b)")
	printCompare(os.Stdout, all)
	for _, r := range bad {
		spec, _ := findE2E(r.Metric)
		fmt.Printf("selfcheck FAILED: %s %s: medians %.6g and %.6g differ by %.1f%%, bound %.1f%%\n",
			r.Workload, r.Metric, r.A.Median, r.B.Median, 100*r.Delta, 100*spec.Bound)
	}
	return len(bad) == 0
}

// glueShareLimit is how much of a traced iteration's wall the harness's
// own glue may take: the layers' self times must sum to within 5 % of it.
const glueShareLimit = 0.05

// spanFile is what -trace-out writes.
type spanFile struct {
	Seed      uint64
	Workloads []spanFileEntry
}

type spanFileEntry struct {
	Workload string
	Spans    []span
}

// runTraced runs all six traced legs, each in a fresh child, and folds
// their layer metrics into one ledger. Every traced run fills the whole
// ledger, so the per-layer numbers of two commits line up name by name.
func runTraced(res *runResult, spansOut string) contractLine {
	line := contractLine{Correct: true, Metrics: map[string]contractValue{}}
	res.Layers = map[string]float64{}
	spans := spanFile{Seed: res.Seed}
	fmt.Println("traced run:")
	for _, w := range workloads {
		var t traceOut
		if err := spawn(&t, w.Name, res.Seed, 0, true); err != nil {
			fatal(1, err)
		}
		if glue := t.Shares["bench"]; glue > glueShareLimit {
			t.Failed++
			t.Failures = append(t.Failures, fmt.Sprintf("harness glue is %.1f%% of the traced wall (limit %.0f%%)",
				100*glue, 100*glueShareLimit))
		}
		for k, v := range t.Metrics {
			res.Layers[k] = v
		}
		spans.Workloads = append(spans.Workloads, spanFileEntry{w.Name, t.Spans})
		fmt.Println(traceSummary(&t))
		t.Metrics, t.Spans = nil, nil
		res.Trace = append(res.Trace, t)
		for _, f := range t.Failures {
			fmt.Printf("  FAILED: %s: %s\n", w.Name, f)
		}
		line.Attempted += t.Ops
		line.Failed += t.Failed
	}
	for _, l := range layerMetrics {
		v, ok := res.Layers[l.Name]
		if !ok {
			line.Failed++
			fmt.Printf("  FAILED: %s: traced leg reported no %s\n", l.On, l.Name)
			continue
		}
		line.Metrics[l.Name] = contractValue{v, l.Unit}
	}
	printLayers(os.Stdout, res.Layers)
	if spansOut != "" {
		if err := writeJSONFile(spansOut, spans); err != nil {
			fatal(2, err)
		}
	}
	line.Correct = line.Failed == 0
	return line
}

func runCompare(pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fatal(2, err)
	}
	b, err := readResults(pathB)
	if err != nil {
		fatal(2, err)
	}
	rows := compareResults(a.Workloads, b.Workloads)
	if len(rows) == 0 {
		fatal(2, fmt.Errorf("%s and %s share no workload", pathA, pathB))
	}
	fmt.Printf("a = %s (%s, %d CPUs, seed %d, %d passes)\nb = %s (%s, %d CPUs, seed %d, %d passes)\n",
		pathA, a.GoVersion, a.NumCPU, a.Seed, a.Passes, pathB, b.GoVersion, b.NumCPU, b.Seed, b.Passes)
	printCompare(os.Stdout, rows)
	code := 0
	for _, r := range rows {
		if r.Verdict == verdictWorse {
			code = 1
		}
	}
	return code
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-16s op = %s, workers=%s\n      %s\n", w.Name, w.Op, w.Workers, w.Why)
	}
	fmt.Println("end-to-end metrics:")
	for _, m := range e2eMetrics {
		applies := "all"
		if m.Applies != nil {
			applies = strings.Join(m.Applies, ", ")
		}
		fmt.Printf("  %-22s %-6s %-9s better=%-6s bound=%-5g driver-bound=%-5g applies to %s\n",
			m.Name, m.Unit, m.Kind, m.Better, m.Bound, m.DriverBound, applies)
	}
	fmt.Println("per-layer metrics (traced run):")
	for _, l := range layerMetrics {
		fmt.Printf("  %-42s %-6s %-9s on %-16s moves %s\n", l.Name, l.Unit, l.Kind, l.On, strings.Join(l.Moves, ", "))
	}
}

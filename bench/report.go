package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricSummary is one end-to-end metric on one workload: the median
// over passes is the reported value.
type metricSummary struct {
	Unit           string
	Median, Q1, Q3 float64
	// Values holds the per-pass values, in pass order.
	Values []float64
}

// workloadResult is every pass of one workload, summarized.
type workloadResult struct {
	Name    string
	Digest  string
	Metrics map[string]metricSummary
	// Tail is informational: the highest percentile of the pooled
	// iteration times with at least ten samples beyond it.
	TailPercentile float64 `json:",omitempty"`
	IterTailMS     float64 `json:",omitempty"`
	IterSamples    int
	Attempted      int64
	Failed         int64
	Failures       []string `json:",omitempty"`
	// Passes keeps the raw passes for -selfcheck's odd/even split; a
	// results file carries their per-pass metric values instead.
	Passes []passResult `json:"-"`
}

// runResult is a results file: what -o writes and -compare reads.
type runResult struct {
	GoVersion, GOOS, GOARCH string
	NumCPU                  int
	Seed                    uint64
	Passes                  int
	Seconds                 float64
	Workloads               []workloadResult
	// Layers is the per-layer ledger of the traced run, when one ran,
	// and Trace its legs (overhead ratio, layer shares, digests).
	Layers map[string]float64 `json:",omitempty"`
	Trace  []traceOut         `json:",omitempty"`
}

// passMetrics derives a pass's end-to-end metric values. A metric that
// does not apply to the workload is absent.
func passMetrics(p passResult) map[string]float64 {
	ops := float64(p.Ops)
	m := map[string]float64{
		"setup_s":            p.SetupS,
		"ops_per_s":          ops / p.TimedS,
		"iter_p50_ms":        median(p.IterMS),
		"allocs_per_op":      float64(p.Mallocs) / ops,
		"alloc_bytes_per_op": float64(p.AllocBytes) / ops,
		"peak_rss_mb":        p.PeakRSSMB,
		"failed_ratio":       float64(p.Failed) / ops,
	}
	if p.SimCycles > 0 {
		m["sim_cycles_per_s"] = float64(p.SimCycles) / p.TimedS
		m["sim_cycles_per_packet"] = p.CyclesPerPacket
	}
	if p.ClockErr > 0 {
		m["paper_clock_err"] = p.ClockErr
	}
	for name := range m {
		if spec, ok := findE2E(name); !ok || !spec.appliesTo(p.Workload) {
			delete(m, name)
		}
	}
	return m
}

// summarize folds a workload's passes into a workloadResult. Passes
// whose sim digest differs from the first are failures: the simulated
// outputs must repeat exactly.
func summarize(name string, passes []passResult) workloadResult {
	w := workloadResult{Name: name, Metrics: map[string]metricSummary{}, Passes: passes}
	if len(passes) == 0 {
		return w
	}
	w.Digest = passes[0].Digest
	values := map[string][]float64{}
	var pooled []float64
	for i, p := range passes {
		for k, v := range passMetrics(p) {
			values[k] = append(values[k], v)
		}
		pooled = append(pooled, p.IterMS...)
		w.Attempted += p.Ops
		w.Failed += p.Failed
		w.Failures = append(w.Failures, p.Failures...)
		if p.Digest != w.Digest {
			w.Failed++
			w.Failures = append(w.Failures, fmt.Sprintf("pass %d sim_digest %s differs from pass 1's %s", i+1, p.Digest, w.Digest))
		}
	}
	for _, spec := range e2eMetrics {
		vs, ok := values[spec.Name]
		if !ok {
			continue
		}
		q1, q3 := quartiles(vs)
		w.Metrics[spec.Name] = metricSummary{Unit: spec.Unit, Median: median(vs), Q1: q1, Q3: q3, Values: vs}
	}
	w.IterSamples = len(pooled)
	if p, ok := tailPercentile(len(pooled)); ok {
		w.TailPercentile, w.IterTailMS = p, percentile(sortedCopy(pooled), p)
	}
	return w
}

// verdicts of a comparison row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening returns by what share of a's median b's median is worse
// (negative when better). Differences within the metric's floor count
// as none.
func worsening(spec e2eSpec, a, b float64) float64 {
	if math.Abs(b-a) <= spec.Floor || a == b {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if a == 0 {
		d = math.Inf(1)
		if b < a {
			d = math.Inf(-1)
		}
	}
	if spec.Better == "higher" {
		d = -d
	}
	return d
}

// judge compares reference a with candidate b on one metric. A metric
// whose run-to-run spread exceeds its bound is unresolved unless every
// run of one side beats every run of the other; exact metrics (bound 0)
// resolve on any difference.
func judge(spec e2eSpec, a, b metricSummary) (delta float64, verdict string) {
	delta = worsening(spec, a.Median, b.Median)
	if spec.Bound > 0 {
		wide := math.Max(spread(a.Values), spread(b.Values)) > spec.Bound
		if wide && overlap(a.Values, b.Values) {
			return delta, verdictUnresolved
		}
	}
	switch {
	case delta > spec.Bound:
		return delta, verdictWorse
	case delta < -spec.Bound:
		return delta, verdictBetter
	}
	return delta, verdictSame
}

// overlap reports whether the two value ranges intersect.
func overlap(a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	return sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
}

// compareRow is one (workload, metric) line of a comparison.
type compareRow struct {
	Workload, Metric string
	A, B             metricSummary
	Delta            float64
	Verdict          string
}

// compareResults lines up every (workload, end-to-end metric) both
// results carry.
func compareResults(a, b []workloadResult) []compareRow {
	var rows []compareRow
	for _, wa := range a {
		for _, wb := range b {
			if wa.Name != wb.Name {
				continue
			}
			for _, spec := range e2eMetrics {
				ma, oka := wa.Metrics[spec.Name]
				mb, okb := wb.Metrics[spec.Name]
				if !oka || !okb {
					continue
				}
				delta, verdict := judge(spec, ma, mb)
				rows = append(rows, compareRow{wa.Name, spec.Name, ma, mb, delta, verdict})
			}
		}
	}
	return rows
}

func printCompare(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %14s %14s %9s  %s\n",
		"workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "worse by", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-22s %14.6g %14s %14.6g %14s %+8.2f%%  %s\n",
			r.Workload, r.Metric, r.A.Median, fmtRange(r.A), r.B.Median, fmtRange(r.B), 100*r.Delta, r.Verdict)
	}
}

func fmtRange(m metricSummary) string { return fmt.Sprintf("%.4g..%.4g", m.Q1, m.Q3) }

// splitOddEven deals passes alternately into two sets, so each set
// samples the whole run's span of machine conditions.
func splitOddEven(passes []passResult) (odd, even []passResult) {
	for i, p := range passes {
		if i%2 == 0 {
			odd = append(odd, p)
		} else {
			even = append(even, p)
		}
	}
	return odd, even
}

// selfcheckRows compares the two halves of a double-length run and
// returns the rows whose medians differ by more than the bound in
// either direction. Unlike -compare, spread excuses nothing here: the
// benchmark must not ship a bound it cannot itself hold.
func selfcheckRows(results []workloadResult) (all, bad []compareRow) {
	for _, w := range results {
		odd, even := splitOddEven(w.Passes)
		a, b := summarize(w.Name, odd), summarize(w.Name, even)
		for _, spec := range e2eMetrics {
			ma, oka := a.Metrics[spec.Name]
			mb, okb := b.Metrics[spec.Name]
			if !oka || !okb {
				continue
			}
			d := worsening(spec, ma.Median, mb.Median)
			if back := worsening(spec, mb.Median, ma.Median); back > d {
				d = back
			}
			row := compareRow{w.Name, spec.Name, ma, mb, d, verdictSame}
			if d > spec.Bound {
				row.Verdict = verdictWorse
				bad = append(bad, row)
			}
			all = append(all, row)
		}
	}
	return all, bad
}

func printWorkload(w io.Writer, r workloadResult) {
	spec, _ := findWorkload(r.Name)
	fmt.Fprintf(w, "%s  (op = %s, workers=%s, %d passes, %d iterations, sim_digest %s)\n",
		r.Name, spec.Op, spec.Workers, len(r.Passes), r.IterSamples, r.Digest)
	for _, m := range e2eMetrics {
		s, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-22s %16.6g %-6s [%s]  q1..q3 %s  spread %.1f%%\n",
			m.Name, s.Median, s.Unit, m.Kind, fmtRange(s), 100*spread(s.Values))
	}
	if r.TailPercentile > 0 {
		fmt.Fprintf(w, "  %-22s %16.6g %-6s [informational]  p%g of n=%d\n",
			"iter_tail_ms", r.IterTailMS, "ms", r.TailPercentile, r.IterSamples)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s: %s\n", r.Name, f)
	}
}

func printLayers(w io.Writer, layers map[string]float64) {
	fmt.Fprintln(w, "per-layer ledger (traced run):")
	for _, l := range layerMetrics {
		v, ok := layers[l.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-42s %16.6g %-6s [%s] on %-16s moves %s\n",
			l.Name, v, l.Unit, l.Kind, l.On, strings.Join(l.Moves, ", "))
	}
}

// contractLine is the last line of standard output: the one JSON object
// the driver reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (c contractLine) print(w io.Writer) error {
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// e2eContract is a workload's policed end-to-end metrics.
func e2eContract(r workloadResult) contractLine {
	c := contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]contractValue{}}
	for _, m := range e2eMetrics {
		if s, ok := r.Metrics[m.Name]; ok && m.policed() {
			c.Metrics[m.Name] = contractValue{s.Median, s.Unit}
		}
	}
	return c
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

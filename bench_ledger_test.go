// Bench ledger: every BENCH_*.json at the root is a speed claim's
// evidence, written by `make bench-pair` — alternating runs of one
// workload at the parent revision and at the change, each a `go run
// ./bench -o` results file. This test re-derives the claim from the runs
// alone, so a record whose data does not support what it states, or
// whose two sides computed different results, fails tier-1. The evidence
// bar is the ledger's, not the record's: at least ledgerMinPairs pairs,
// the change ahead in ledgerWinShare of them, in the metric's own
// direction.
package taco_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// The evidence bar every claim meets.
const (
	ledgerMinPairs = 10
	ledgerWinShare = 0.9
)

// ledgerBetter is each claimable end-to-end metric's fixed direction, as
// bench/spec.go declares it.
var ledgerBetter = map[string]string{
	"setup_s":            "lower",
	"ops_per_s":          "higher",
	"iter_p50_ms":        "lower",
	"sim_cycles_per_s":   "higher",
	"allocs_per_op":      "lower",
	"alloc_bytes_per_op": "lower",
	"peak_rss_mb":        "lower",
}

// benchRun is the part of a bench results file the ledger reads.
type benchRun struct {
	Seed, Passes, Seconds int
	Workloads             []struct {
		Name    string
		Digest  string
		Failed  int64
		Metrics map[string]struct{ Values []float64 }
	}
}

type benchRecord struct {
	Record   int
	Old, New string
	Claim    struct {
		Workload, Metric string
		MinChange        float64 `json:"min_change"`
	}
	Pairs []struct {
		First    string
		Old, New benchRun
	}
}

func sortedFloats(xs []float64) []float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s
}

// ledgerMedian is the middle value, or the mean of the two middle ones.
func ledgerMedian(xs []float64) float64 {
	s := sortedFloats(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ledgerIQR is Q3 − Q1 by the exclusive method (Python's
// statistics.quantiles(xs, n=4)), the spread the benchmark prints.
func ledgerIQR(xs []float64) float64 {
	s := sortedFloats(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(3) - at(1)
}

// shape is what every run of a record shares: the seed and the run length.
func (r benchRun) shape() [3]int { return [3]int{r.Seed, r.Passes, r.Seconds} }

// value is a run's claimed metric: the median over its passes.
func (r benchRun) value(workload, metric string) (v float64, digest string, err error) {
	if len(r.Workloads) != 1 || r.Workloads[0].Name != workload {
		return 0, "", fmt.Errorf("run is not exactly workload %q", workload)
	}
	w := r.Workloads[0]
	if w.Failed != 0 {
		return 0, "", fmt.Errorf("%d failed ops", w.Failed)
	}
	vals := w.Metrics[metric].Values
	if len(vals) == 0 {
		return 0, "", fmt.Errorf("no %s values", metric)
	}
	return ledgerMedian(vals), w.Digest, nil
}

// checkRecord re-derives rec's claim from its runs.
func checkRecord(rec benchRecord) error {
	c := rec.Claim
	better, ok := ledgerBetter[c.Metric]
	if !ok {
		return fmt.Errorf("metric %q has no fixed direction", c.Metric)
	}
	if len(rec.Pairs) < ledgerMinPairs {
		return fmt.Errorf("%d pairs, the ledger needs %d", len(rec.Pairs), ledgerMinPairs)
	}
	minWins := int(math.Ceil(ledgerWinShare * float64(len(rec.Pairs))))
	var olds, news []float64
	wins := 0
	digest := ""
	for i, p := range rec.Pairs {
		if want := [2]string{"old", "new"}[i%2]; p.First != want {
			return fmt.Errorf("pair %d ran %q first, want %q: the order must alternate", i+1, p.First, want)
		}
		for _, r := range []benchRun{p.Old, p.New} {
			if r.shape() != rec.Pairs[0].Old.shape() {
				return fmt.Errorf("pair %d: a run's seed, passes and seconds %v differ from pair 1's %v",
					i+1, r.shape(), rec.Pairs[0].Old.shape())
			}
		}
		o, od, err := p.Old.value(c.Workload, c.Metric)
		if err != nil {
			return fmt.Errorf("pair %d, old: %v", i+1, err)
		}
		n, nd, err := p.New.value(c.Workload, c.Metric)
		if err != nil {
			return fmt.Errorf("pair %d, new: %v", i+1, err)
		}
		if digest == "" {
			digest = od
		}
		if od != digest || nd != digest {
			return fmt.Errorf("pair %d: sim_digest old %s, new %s, first pair %s", i+1, od, nd, digest)
		}
		if better == "lower" && n < o || better == "higher" && n > o {
			wins++
		}
		olds, news = append(olds, o), append(news, n)
	}
	mo, mn := ledgerMedian(olds), ledgerMedian(news)
	change := (mo - mn) / mo
	if better == "higher" {
		change = -change
	}
	switch {
	case wins < minWins:
		return fmt.Errorf("the change wins %d of %d pairs, the ledger needs %d", wins, len(rec.Pairs), minWins)
	case change < c.MinChange:
		return fmt.Errorf("median %s %g -> %g is %.1f %% better, the claim needs %.1f %%",
			c.Metric, mo, mn, 100*change, 100*c.MinChange)
	case math.Abs(mn-mo) <= ledgerIQR(olds):
		return fmt.Errorf("median %s moved %g, within the parent's interquartile range %g",
			c.Metric, math.Abs(mn-mo), ledgerIQR(olds))
	}
	return nil
}

func TestBenchLedger(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json records")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var rec benchRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if want := fmt.Sprintf("BENCH_%04d.json", rec.Record); f != want {
			t.Errorf("%s: record number %d belongs in %s", f, rec.Record, want)
		}
		if err := checkRecord(rec); err != nil {
			t.Errorf("%s (%s vs %s): %v", f, rec.Old, rec.New, err)
		}
	}
}

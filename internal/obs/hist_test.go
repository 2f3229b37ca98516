package obs

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// histWorkloads are the seeded value generators the quantile and merge
// tests run over: each shape stresses a different part of the bucket
// layout (exact region, wide octaves, heavy tails, ties).
var histWorkloads = []struct {
	name string
	gen  func(r *rand.Rand) int64
}{
	{"uniform-small", func(r *rand.Rand) int64 { return r.Int63n(histSub) }},
	{"uniform-wide", func(r *rand.Rand) int64 { return r.Int63n(1_000_000) }},
	{"exponential", func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 5000) }},
	{"bimodal", func(r *rand.Rand) int64 {
		if r.Intn(10) == 0 {
			return 80_000 + r.Int63n(4000)
		}
		return 100 + r.Int63n(50)
	}},
	{"constant", func(r *rand.Rand) int64 { return 4096 }},
	{"huge", func(r *rand.Rand) int64 { return (1 << 50) + r.Int63n(1<<40) }},
}

// TestLatencyHistQuantileErrorBounds checks every reported quantile
// against the exact order statistic of a sorted reference: never below
// it, and above it by at most one part in 2^histSubBits (plus one for
// integer truncation).
func TestLatencyHistQuantileErrorBounds(t *testing.T) {
	quantiles := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for _, w := range histWorkloads {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			var h LatencyHist
			vals := make([]int64, 0, 5000)
			for i := 0; i < 5000; i++ {
				v := w.gen(r)
				h.Record(v)
				vals = append(vals, v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			for _, q := range quantiles {
				// The reference is exactly what Quantile documents: the
				// ceil(q*n)-th smallest value, rank clamped to [1, n].
				cr := int64(q * float64(len(vals)))
				if float64(cr) < q*float64(len(vals)) {
					cr++
				}
				if cr < 1 {
					cr = 1
				}
				if cr > int64(len(vals)) {
					cr = int64(len(vals))
				}
				exact := vals[cr-1]
				got := h.Quantile(q)
				if got < exact {
					t.Fatalf("%s/seed%d q=%v: got %d below exact order statistic %d",
						w.name, seed, q, got, exact)
				}
				if maxErr := exact>>histSubBits + 1; got-exact > maxErr {
					t.Fatalf("%s/seed%d q=%v: got %d, exact %d — error %d exceeds bound %d",
						w.name, seed, q, got, exact, got-exact, maxErr)
				}
			}
			// Values below histSub live in exact buckets: the median of a
			// small-value workload must be exact, not just bounded.
			if w.name == "uniform-small" {
				if got, exact := h.Quantile(0.5), vals[(len(vals)+1)/2-1]; got != exact {
					t.Fatalf("small-value median not exact: got %d, want %d", got, exact)
				}
			}
		}
	}
}

// TestLatencyHistMergeAssociativity: (a∪b)∪c, a∪(b∪c) and a one-shot
// histogram of the concatenated stream must be byte-for-byte the same
// state. LatencyHist is a comparable struct, so == checks everything.
func TestLatencyHistMergeAssociativity(t *testing.T) {
	for _, w := range histWorkloads {
		parts := make([]*LatencyHist, 3)
		var oneShot LatencyHist
		for i := range parts {
			r := rand.New(rand.NewSource(int64(100 + i)))
			parts[i] = &LatencyHist{}
			for j := 0; j < 1000+i*37; j++ {
				v := w.gen(r)
				parts[i].Record(v)
				oneShot.Record(v)
			}
		}
		var left LatencyHist // (a ∪ b) ∪ c
		left.Merge(parts[0])
		left.Merge(parts[1])
		left.Merge(parts[2])
		var bc LatencyHist // a ∪ (b ∪ c)
		bc.Merge(parts[1])
		bc.Merge(parts[2])
		var right LatencyHist
		right.Merge(parts[0])
		right.Merge(&bc)
		if left != right {
			t.Fatalf("%s: merge is not associative", w.name)
		}
		if left != oneShot {
			t.Fatalf("%s: merged state differs from one-shot recording", w.name)
		}
	}
}

// TestLatencyHistRecordAllocs guards the hot path: Record (and the
// read-side Quantile/Merge) must not allocate. The CI overhead-guard
// job runs this test by name.
func TestLatencyHistRecordAllocs(t *testing.T) {
	var h LatencyHist
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v += 97
	}); n != 0 {
		t.Fatalf("Record allocates: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Quantile(0.99) }); n != 0 {
		t.Fatalf("Quantile allocates: %v allocs/op", n)
	}
	var o LatencyHist
	o.Record(42)
	if n := testing.AllocsPerRun(100, func() { h.Merge(&o) }); n != 0 {
		t.Fatalf("Merge allocates: %v allocs/op", n)
	}
}

// TestLatencyHistEmpty: the zero value reports zeros everywhere and
// survives a JSON round trip without inventing buckets.
func TestLatencyHistEmpty(t *testing.T) {
	var h LatencyHist
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram reports nonzero aggregates")
	}
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if p := h.Percentiles(); p != (LatencyPercentiles{}) {
		t.Fatalf("empty Percentiles() = %+v, want zeros", p)
	}
	h.ForEachBucket(func(high, count int64) {
		t.Fatalf("empty histogram iterated bucket le=%d count=%d", high, count)
	})
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Buckets") {
		t.Fatalf("empty histogram JSON carries a bucket map: %s", b)
	}
	var back LatencyHist
	back.Record(7) // pre-dirty: Unmarshal must fully overwrite
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("empty histogram did not survive the JSON round trip")
	}
}

func TestLatencyHistJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var h LatencyHist
	for i := 0; i < 4000; i++ {
		h.Record(int64(r.ExpFloat64() * 3000))
	}
	b1, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("marshaling is not deterministic")
	}
	var back LatencyHist
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("histogram state changed across the JSON round trip")
	}
	var bad LatencyHist
	if err := json.Unmarshal([]byte(`{"Count":1,"Buckets":{"99999":1}}`), &bad); err == nil {
		t.Fatalf("out-of-range bucket index accepted")
	}
}

// TestLatencyHistBucketMapping pins the bucket layout itself:
// bucketHigh is the inclusive upper bound of its bucket, bounds are
// strictly increasing, and every value maps into the bucket whose
// range contains it.
func TestLatencyHistBucketMapping(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		hi := bucketHigh(i)
		if hi <= prev {
			t.Fatalf("bucketHigh not strictly increasing at %d: %d <= %d", i, hi, prev)
		}
		if got := bucketIdx(hi); got != i {
			t.Fatalf("bucketIdx(bucketHigh(%d)) = %d", i, got)
		}
		// The next representable value must fall in a later bucket.
		if hi < 1<<62 {
			if got := bucketIdx(hi + 1); got != i+1 {
				t.Fatalf("bucketIdx(%d) = %d, want %d", hi+1, got, i+1)
			}
		}
		prev = hi
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		v := r.Int63()
		idx := bucketIdx(v)
		if hi := bucketHigh(idx); v > hi {
			t.Fatalf("value %d above its bucket bound %d (bucket %d)", v, hi, idx)
		}
		if idx > 0 {
			if lo := bucketHigh(idx-1) + 1; v < lo {
				t.Fatalf("value %d below its bucket floor %d (bucket %d)", v, lo, idx)
			}
		}
	}
	if got := bucketIdx(-5); got != 0 {
		t.Fatalf("negative value bucketIdx = %d, want 0", got)
	}
	var h LatencyHist
	h.Record(-12)
	if h.Sum() != 0 || h.Quantile(1) != 0 || h.Count() != 1 {
		t.Fatalf("negative Record did not clamp to zero: %+v", h.Percentiles())
	}
}

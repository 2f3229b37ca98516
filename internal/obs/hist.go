package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
)

// LatencyHist is an HDR-style log-linear histogram for per-packet
// latencies (or any nonnegative cycle/duration measurement). Values
// below 2^histSubBits are recorded exactly; above that each power-of-two
// octave is split into 2^histSubBits linear sub-buckets, bounding the
// relative quantile error at 2^-histSubBits (≈3.1%) while keeping the
// whole state a flat fixed-size array — Record is a few integer ops and
// allocates nothing, and two histograms merge by element-wise addition,
// so per-line-card and per-sweep-worker histograms combine exactly.
//
// The zero value is an empty histogram ready to use. Use by pointer:
// the bucket array is ~15 KiB and must not be copied per record.
type LatencyHist struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
}

const (
	// histSubBits sets the resolution: 2^histSubBits linear sub-buckets
	// per power-of-two octave.
	histSubBits = 5
	histSub     = 1 << histSubBits // 32
	// histBuckets covers every nonnegative int64: 32 exact buckets plus
	// (63-5) octaves of 32 sub-buckets each.
	histBuckets = histSub + (63-histSubBits)*histSub // 1920
)

// bucketIdx maps a value to its bucket. Negative values clamp to 0.
func bucketIdx(v int64) int {
	if v < 0 {
		return 0
	}
	if v < histSub {
		return int(v)
	}
	top := bits.Len64(uint64(v)) - 1 // position of the highest set bit, >= histSubBits
	shift := uint(top - histSubBits)
	// v>>shift is in [histSub, 2*histSub): the +histSub offset of the
	// octave's sub-bucket block is built into the truncated value.
	return (top-histSubBits)<<histSubBits + int(uint64(v)>>shift)
}

// bucketHigh returns the largest value that maps to bucket i — the
// value Quantile reports for ranks landing in the bucket, so quantiles
// never underestimate.
func bucketHigh(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	block := uint(i >> histSubBits) // octave number, >= 1
	sub := uint64(i & (histSub - 1))
	return int64((sub+histSub+1)<<(block-1) - 1)
}

// Record adds one measurement. Negative values clamp to zero. The path
// is allocation-free (guarded by AllocsPerRun in the tests).
func (h *LatencyHist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIdx(v)]++
}

// Merge adds o's measurements into h. Merging is exact (bucket-wise
// addition), hence associative and commutative.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, v := range o.buckets {
		if v != 0 {
			h.buckets[i] += v
		}
	}
}

// Reset empties the histogram, keeping its storage.
func (h *LatencyHist) Reset() { *h = LatencyHist{} }

// Count returns the number of recorded measurements.
func (h *LatencyHist) Count() int64 { return h.count }

// Sum returns the sum of all recorded measurements.
func (h *LatencyHist) Sum() int64 { return h.sum }

// Quantile returns the q-quantile (q in [0,1]) as the upper bound of
// the bucket holding the rank — an overestimate by at most one part in
// 2^histSubBits of the true order statistic, and never below it.
// An empty histogram reports 0.
func (h *LatencyHist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, v := range h.buckets {
		cum += v
		if cum >= rank {
			hi := bucketHigh(i)
			if hi < h.min {
				hi = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// LatencyPercentiles is the standard percentile extraction, in the
// histogram's measurement unit (cycles).
type LatencyPercentiles struct {
	P50, P90, P99, P999 int64
}

// Percentiles extracts p50/p90/p99/p99.9 in one call.
func (h *LatencyHist) Percentiles() LatencyPercentiles {
	return LatencyPercentiles{
		P50:  h.Quantile(0.50),
		P90:  h.Quantile(0.90),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
	}
}

// ForEachBucket calls fn for every nonzero bucket in ascending value
// order with the bucket's inclusive upper bound and its count — the
// iteration shape the Prometheus histogram exposition uses.
func (h *LatencyHist) ForEachBucket(fn func(high, count int64)) {
	for i, v := range h.buckets {
		if v != 0 {
			fn(bucketHigh(i), v)
		}
	}
}

// histJSON is the wire form: sparse buckets keyed by decimal index.
type histJSON struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets map[string]int64 `json:",omitempty"`
}

// MarshalJSON emits the sparse bucket map (encoding/json sorts map
// keys, so the bytes are deterministic for a given histogram).
func (h *LatencyHist) MarshalJSON() ([]byte, error) {
	out := histJSON{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, v := range h.buckets {
		if v != 0 {
			if out.Buckets == nil {
				out.Buckets = make(map[string]int64)
			}
			out.Buckets[strconv.Itoa(i)] = v
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON accepts the sparse bucket form.
func (h *LatencyHist) UnmarshalJSON(b []byte) error {
	var in histJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*h = LatencyHist{count: in.Count, sum: in.Sum, min: in.Min, max: in.Max}
	idxs := make([]string, 0, len(in.Buckets))
	for k := range in.Buckets {
		idxs = append(idxs, k)
	}
	sort.Strings(idxs)
	for _, k := range idxs {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= histBuckets {
			return fmt.Errorf("obs: latency histogram: bad bucket index %q", k)
		}
		h.buckets[i] = in.Buckets[k]
	}
	return nil
}

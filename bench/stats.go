package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method — the one Python's statistics.quantiles(xs, n=4) uses, so the
// spread printed here is the spread the driver computes. One value is
// its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Cut point i of 4 over m = n+1 intervals.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(med)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9)) // 99.9 % of 1000 is 999, not 999.0000000000001
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the candidates for the reported tail, ascending.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it; ok is false when even p90 has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if float64(n)*(100-c)/100 >= 10-1e-9 {
			p, ok = c, true
		}
	}
	return p, ok
}

// digest folds simulated outputs into an FNV-64a sum. Two runs of the
// same seed must produce the same digest whatever the host did.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}
func (d *digest) i64(v int64)    { d.u64(uint64(v)) }
func (d *digest) f64(v float64)  { d.u64(math.Float64bits(v)) }
func (d *digest) bytes(b []byte) { d.h.Write(b) }
func (d *digest) str(s string)   { d.h.Write([]byte(s)); d.h.Write([]byte{0}) }
func (d *digest) sum() string    { return fmt.Sprintf("%016x", d.h.Sum64()) }
func digestOf(b []byte) string   { d := newDigest(); d.bytes(b); return d.sum() }

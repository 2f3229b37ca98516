package bits

import (
	"math/rand"
	"slices"
	"testing"
)

func TestPrefixCanonicalise(t *testing.T) {
	p := MakePrefix(Max128, 16)
	if p.Addr != Mask(16) {
		t.Errorf("host bits not cleared: %v", p.Addr)
	}
	if p.Len != 16 {
		t.Errorf("Len = %d", p.Len)
	}
	if q := MakePrefix(Max128, 300); q.Len != 128 {
		t.Errorf("Len clamp high failed: %d", q.Len)
	}
	if q := MakePrefix(Max128, -1); q.Len != 0 || !q.Addr.IsZero() {
		t.Errorf("Len clamp low failed: %+v", q)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MakePrefix(FromWords(0x20010db8, 0, 0, 0), 32)
	if !p.Contains(FromWords(0x20010db8, 0xffffffff, 1, 2)) {
		t.Error("address inside prefix not contained")
	}
	if p.Contains(FromWords(0x20010db9, 0, 0, 0)) {
		t.Error("address outside prefix contained")
	}
	// /0 contains everything; /128 only itself.
	if !MakePrefix(Zero128, 0).Contains(Max128) {
		t.Error("::/0 should contain max")
	}
	host := MakePrefix(FromUint64(42), 128)
	if !host.Contains(FromUint64(42)) || host.Contains(FromUint64(43)) {
		t.Error("/128 containment wrong")
	}
}

// TestContainsMatchesMaskFormula checks Contains against the formula
// written out with shiftMask, on random prefixes with random host bits
// (non-canonical ones never contain anything) and lengths past both
// ends of [0,128].
func TestContainsMatchesMaskFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	word := func() Word128 { return Word128{Hi: rng.Uint64(), Lo: rng.Uint64()} }
	for i := 0; i < 20000; i++ {
		n := rng.Intn(133) - 2
		p := Prefix{Addr: word(), Len: n}
		if i%2 == 0 {
			p.Addr = p.Addr.And(shiftMask(n))
		}
		// Half the addresses share p's top bits, so both answers occur.
		addr := word()
		if i%4 < 2 {
			addr = p.Addr.And(shiftMask(n)).Or(addr.And(shiftMask(n).Not()))
		}
		if got, want := p.Contains(addr), addr.And(shiftMask(n)) == p.Addr; got != want {
			t.Fatalf("%+v.Contains(%v) = %v, want %v", p, addr, got, want)
		}
	}
}

func TestPrefixFirstLast(t *testing.T) {
	p := MakePrefix(FromWords(0x20010db8, 0, 0, 0), 32)
	if p.First() != FromWords(0x20010db8, 0, 0, 0) {
		t.Errorf("First = %v", p.First())
	}
	want := FromWords(0x20010db8, 0xffffffff, 0xffffffff, 0xffffffff)
	if p.Last() != want {
		t.Errorf("Last = %v, want %v", p.Last(), want)
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MakePrefix(FromWords(0x20010000, 0, 0, 0), 16)
	b := MakePrefix(FromWords(0x20010db8, 0, 0, 0), 32)
	c := MakePrefix(FromWords(0x30000000, 0, 0, 0), 8)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes should overlap")
	}
	if a.Overlaps(c) || c.Overlaps(b) {
		t.Error("disjoint prefixes overlap")
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{First: FromUint64(10), Last: FromUint64(20)}
	for _, v := range []uint64{10, 15, 20} {
		if !r.Contains(FromUint64(v)) {
			t.Errorf("range should contain %d", v)
		}
	}
	for _, v := range []uint64{9, 21} {
		if r.Contains(FromUint64(v)) {
			t.Errorf("range should not contain %d", v)
		}
	}
}

// rangeOwner is one range DisjointRanges emits, with its owner.
type rangeOwner struct {
	Range Range
	Owner int
}

// rangesOf sweeps ps, in any order, through DisjointRanges — by a
// permutation sorting them into Cmp order, so owners index ps — and
// checks the counting sweep agrees with the ranges emitted.
func rangesOf(t *testing.T, ps []Prefix) []rangeOwner {
	t.Helper()
	idx := make([]int, len(ps))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return ps[a].Cmp(ps[b]) })
	prefix := func(i int) Prefix { return ps[idx[i]] }
	var out []rangeOwner
	n := DisjointRanges(len(ps), prefix, func(r Range, owner int) { out = append(out, rangeOwner{r, idx[owner]}) })
	if counted := DisjointRanges(len(ps), prefix, nil); counted != n || len(out) != n {
		t.Fatalf("counting sweep gives %d ranges, emitting sweep %d (returned %d)", counted, len(out), n)
	}
	return out
}

func TestDisjointRangesSimple(t *testing.T) {
	// One /16 with a nested /32: three ranges (before, inside, after).
	outer := MakePrefix(FromWords(0x20010000, 0, 0, 0), 16)
	inner := MakePrefix(FromWords(0x20010db8, 0, 0, 0), 32)
	ranges := rangesOf(t, []Prefix{outer, inner})
	if len(ranges) != 3 {
		t.Fatalf("got %d ranges, want 3: %v", len(ranges), ranges)
	}
	if ranges[0].Owner != 0 || ranges[1].Owner != 1 || ranges[2].Owner != 0 {
		t.Errorf("owners = %d,%d,%d", ranges[0].Owner, ranges[1].Owner, ranges[2].Owner)
	}
	if ranges[1].Range.First != inner.First() || ranges[1].Range.Last != inner.Last() {
		t.Errorf("inner range = %v", ranges[1].Range)
	}
}

func TestDisjointRangesDefaultRoute(t *testing.T) {
	// ::/0 plus a specific: the tail range must reach Max128.
	def := MakePrefix(Zero128, 0)
	spec := MakePrefix(FromWords(0x20010db8, 0, 0, 0), 32)
	ranges := rangesOf(t, []Prefix{def, spec})
	if len(ranges) != 3 {
		t.Fatalf("got %d ranges: %v", len(ranges), ranges)
	}
	if ranges[2].Range.Last != Max128 {
		t.Errorf("tail range ends at %v", ranges[2].Range.Last)
	}
	if ranges[0].Range.First != Zero128 {
		t.Errorf("head range starts at %v", ranges[0].Range.First)
	}
}

func TestDisjointRangesEmpty(t *testing.T) {
	if got := rangesOf(t, nil); got != nil {
		t.Errorf("DisjointRanges of no prefixes = %v", got)
	}
}

func TestDisjointRangesMergesAdjacent(t *testing.T) {
	// Two adjacent /33 halves of the same /32, same owner index cannot
	// happen (different prefixes), but a covering /16 whose inner /32 is
	// removed leaves adjacent same-owner segments that must merge.
	outer := MakePrefix(FromWords(0x20010000, 0, 0, 0), 16)
	ranges := rangesOf(t, []Prefix{outer})
	if len(ranges) != 1 {
		t.Fatalf("single prefix should yield one range, got %v", ranges)
	}
}

// TestDisjointRangesAgainstLinearScan is the core property: for random
// prefix sets, point-locating an address in the disjoint ranges gives the
// same answer as a longest-prefix scan.
func TestDisjointRangesAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		prefixes := make([]Prefix, n)
		for i := range prefixes {
			ln := rng.Intn(129)
			prefixes[i] = MakePrefix(randWord(rng), ln)
		}
		ranges := rangesOf(t, prefixes)

		locate := func(addr Word128) int {
			for _, ro := range ranges {
				if ro.Range.Contains(addr) {
					return ro.Owner
				}
			}
			return -1
		}
		scan := func(addr Word128) int {
			best, bestLen := -1, -1
			for i, p := range prefixes {
				if p.Contains(addr) && p.Len > bestLen {
					best, bestLen = i, p.Len
				}
			}
			return best
		}
		// Probe random addresses plus every range boundary.
		var probes []Word128
		for k := 0; k < 40; k++ {
			probes = append(probes, randWord(rng))
		}
		for _, ro := range ranges {
			probes = append(probes, ro.Range.First, ro.Range.Last)
		}
		for _, p := range prefixes {
			probes = append(probes, p.First(), p.Last())
		}
		for _, a := range probes {
			got, want := locate(a), scan(a)
			if got != want {
				t.Fatalf("trial %d: addr %v: ranges say %d, scan says %d\nprefixes: %v",
					trial, a, got, want, prefixes)
			}
		}
		// Ranges must be sorted and disjoint.
		for i := 1; i < len(ranges); i++ {
			if !ranges[i-1].Range.Last.Less(ranges[i].Range.First) {
				t.Fatalf("ranges overlap or unsorted: %v then %v",
					ranges[i-1].Range, ranges[i].Range)
			}
		}
	}
}

package bits

import (
	"math/rand"
	"slices"
	"testing"
)

// TestDisjointRangesSortedEqualsShuffled: the sweep over a set already
// in Cmp order and the sweep over shuffles of it, sorted back through
// an index permutation (rangesOf), yield the same ranges with the same
// owning prefixes, on the sets of the tests above and on random ones.
func TestDisjointRangesSortedEqualsShuffled(t *testing.T) {
	outer := MakePrefix(FromWords(0x20010000, 0, 0, 0), 16)
	inner := MakePrefix(FromWords(0x20010db8, 0, 0, 0), 32)
	sets := [][]Prefix{
		{outer, inner},
		{MakePrefix(Zero128, 0), inner},
		{outer},
		{MakePrefix(Max128, 128), MakePrefix(Max128, 127), MakePrefix(Zero128, 0), MakePrefix(Zero128, 128)},
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		set := make([]Prefix, 1+rng.Intn(40))
		for i := range set {
			set[i] = MakePrefix(randWord(rng), rng.Intn(129))
			if i > 0 && rng.Intn(3) == 0 { // nest under an earlier one
				set[i] = MakePrefix(set[rng.Intn(i)].Addr.Or(randWord(rng).And(Mask(64).Not())), 8+rng.Intn(121))
			}
		}
		sets = append(sets, set)
	}
	type owned struct {
		r     Range
		owner Prefix
	}
	resolve := func(prefixes []Prefix) []owned {
		var out []owned
		for _, ro := range rangesOf(t, prefixes) {
			out = append(out, owned{ro.Range, prefixes[ro.Owner]})
		}
		return out
	}
	for i, set := range sets {
		sorted := slices.Clone(set)
		slices.SortFunc(sorted, Prefix.Cmp)
		var want []owned
		DisjointRanges(len(sorted), func(i int) Prefix { return sorted[i] }, func(r Range, owner int) {
			want = append(want, owned{r, sorted[owner]})
		})
		for shuffle := 0; shuffle < 4; shuffle++ {
			mixed := slices.Clone(sorted)
			rng.Shuffle(len(mixed), func(a, b int) { mixed[a], mixed[b] = mixed[b], mixed[a] })
			if got := resolve(mixed); !slices.Equal(got, want) {
				t.Fatalf("set %d: shuffled input gives %v, sorted %v", i, got, want)
			}
		}
	}
}

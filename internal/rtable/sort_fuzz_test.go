package rtable_test

import (
	"encoding/binary"
	"slices"
	"testing"

	"taco/internal/bits"
	"taco/internal/rtable"
)

// One fuzzed route is 6 bytes: a shift and a 16-bit delta that set the
// address's high word to sortFuzzBase ^ delta<<shift, a prefix length,
// and two bytes for the top and bottom of the low word. Equal records
// are duplicates; records that keep their deltas narrow or low share
// the bits above them, which is what picks the sort's bucket bits.
const sortFuzzRecord = 6

const sortFuzzBase = 0x20010db800000000

// sortFuzzRoutes decodes a route set; each route's tag is its position,
// so an output route names the duplicate it came from.
func sortFuzzRoutes(data []byte) []rtable.Route {
	var rs []rtable.Route
	for ; len(data) >= sortFuzzRecord && len(rs) < 4096; data = data[sortFuzzRecord:] {
		hi := sortFuzzBase ^ uint64(binary.BigEndian.Uint16(data[1:]))<<(data[0]%64)
		lo := uint64(data[4])<<56 | uint64(data[5])
		rs = append(rs, rtable.Route{
			Prefix: bits.Prefix{Addr: bits.Word128{Hi: hi, Lo: lo}, Len: int(data[3]) % 129},
			Iface:  len(rs) % 4, Metric: 1, Tag: uint16(len(rs)),
		})
	}
	return rs
}

// FuzzSortRoutes: on fuzzer-decoded route sets SortRoutesInPlace equals
// a full sort that keeps the last of each prefix's routes, and its
// index leads every input route to the route holding its prefix.
// `make fuzz-sort` runs the campaign; the plain test suite replays the
// seeds.
func FuzzSortRoutes(f *testing.F) {
	rec := func(shift byte, delta uint16, ln, lo byte) []byte {
		return []byte{shift, byte(delta >> 8), byte(delta), ln, lo, lo}
	}
	f.Add([]byte{})
	f.Add(rec(0, 0, 64, 1))
	f.Add(slices.Concat(rec(0, 0, 128, 1), rec(0, 0, 128, 2), rec(0, 0, 128, 1), rec(0, 0, 64, 0)))          // one high word
	f.Add(slices.Concat(rec(0, 0xff, 64, 0), rec(0, 0x01, 60, 0), rec(0, 0x80, 64, 0), rec(0, 0x01, 64, 0))) // low 8 bits differ
	f.Add(slices.Concat(rec(48, 0x8000, 1, 0), rec(48, 0, 1, 0), rec(63, 1, 0, 0), rec(20, 0xffff, 48, 9)))  // across the top bit
	f.Fuzz(func(t *testing.T, data []byte) {
		rs := sortFuzzRoutes(data)
		want := referenceSorted(rs)
		at := make([]int32, len(rs))
		got := rtable.SortRoutesInPlace(slices.Clone(rs), at)
		if !slices.Equal(got, want) {
			t.Fatalf("%d routes: sorted %d routes, a full sort keeps %d, or they differ", len(rs), len(got), len(want))
		}
		for i, r := range rs {
			if p := bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len); got[at[i]].Prefix != p {
				t.Fatalf("input %d (%v) indexes %v", i, p, got[at[i]].Prefix)
			}
		}
	})
}

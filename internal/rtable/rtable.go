// Package rtable provides the routing-table implementations: the three
// evaluated in the paper's §4 — sequential (linear-scan) organisation, a
// balanced tree with logarithmic search time, and a content-addressable
// memory (CAM) model — plus four baselines of the large-table study:
// binary trie, multibit trie, tiled TCAM and compressed trie. Each is
// one entry of Backends.
//
// All implementations answer IPv6 longest-prefix-match queries and expose
// access statistics so the evaluation layer can validate the cycle costs
// charged by the TACO programs.
package rtable

import (
	"fmt"
	mathbits "math/bits"
	"slices"
	"strconv"
	"strings"

	"taco/internal/bits"
)

// Route is one routing-table entry.
type Route struct {
	Prefix  bits.Prefix
	NextHop bits.Word128 // next-hop router address (informational)
	Iface   int          // output interface index
	Metric  int          // RIPng metric, 1..16 (16 = unreachable)
	Tag     uint16       // RIPng route tag
}

// String formats the route for diagnostics.
func (r Route) String() string {
	return fmt.Sprintf("%v -> if%d metric %d", r.Prefix, r.Iface, r.Metric)
}

// Kind names a routing-table implementation.
type Kind int

const (
	// Sequential stores entries in arrival order and scans all of them on
	// every lookup: O(n) search, trivial update.
	Sequential Kind = iota
	// BalancedTree stores the disjoint address ranges induced by the
	// prefix set in a balanced binary tree: O(log n) search, complex
	// update (the ranges must be re-split), as discussed in the paper.
	BalancedTree
	// CAM models a 136-bit-wide content-addressable memory with an
	// associated SRAM: single fixed-latency search.
	CAM
	// Trie is a binary-trie baseline, one bit per level with no path
	// compression (not in the paper's Table 1; used by the extension
	// ablations).
	Trie
	// Multibit is a multibit-stride (LC-trie-style) table with path
	// compression: the large-database scaling backend.
	Multibit
	// TiledTCAM is the MashUp-style tiled ternary CAM: the prefix trie is
	// partitioned into subtree tiles sized to a fixed TCAM-block budget,
	// with an SRAM index stage selecting the single block a lookup
	// activates.
	TiledTCAM
	// Compressed is the CRAM-style compressed trie: the multibit walk
	// with bitmap-compressed child arrays, trading popcount-rank logic
	// for an order-of-magnitude smaller SRAM footprint.
	Compressed
)

// MarshalJSON renders the kind by name, keeping metric exports readable.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// UnmarshalJSON accepts the MarshalJSON form (a kind name) or a bare
// integer, so serialized configs — forensic bundles in particular —
// round-trip. Both forms are strict: unknown names and out-of-range
// integers are rejected with the sorted list of valid names, as
// ParseKind rejects unknown names.
func (k *Kind) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		got, err := KindByName(s[1 : len(s)-1])
		if err != nil {
			return err
		}
		*k = got
		return nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("rtable: bad table kind %s (valid: %s)",
			s, strings.Join(KindNames(), " | "))
	}
	if n < 0 || n >= len(Kinds) {
		return fmt.Errorf("rtable: table kind %d out of range (valid: %s)",
			n, strings.Join(KindNames(), " | "))
	}
	*k = Kind(n)
	return nil
}

// Stats counts the table's primitive accesses; the evaluation layer uses
// them to cross-check simulated cycle counts.
type Stats struct {
	Lookups int64
	// Probes counts implementation-level steps: entries scanned
	// (Sequential), tree nodes visited (BalancedTree, Trie), or CAM
	// searches (CAM).
	Probes int64
}

// Table is the longest-prefix-match interface shared by all
// implementations. Inserting a route whose prefix is already present
// replaces it.
type Table interface {
	Kind() Kind
	Insert(r Route) error
	Delete(p bits.Prefix) bool
	Lookup(addr bits.Word128) (Route, bool)
	Len() int
	Routes() []Route
	Stats() Stats
	ResetStats()
	MemSizer
}

// BulkLoader is implemented by tables with a cheaper batch-insert path.
type BulkLoader interface {
	InsertAll(rs []Route) error
}

// InsertAll inserts every route into tbl, using the table's bulk path
// when it has one.
func InsertAll(tbl Table, rs []Route) error {
	if bl, ok := tbl.(BulkLoader); ok {
		return bl.InsertAll(rs)
	}
	for _, r := range rs {
		if err := tbl.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// MemDims sizes a table's storage so the estimation layer can price
// it: the installed prefixes plus the memory regions the organisation
// occupies.
type MemDims struct {
	Entries int // installed prefixes
	Regions []Region
}

// Region is one homogeneous block of a table's storage: Records records
// of Bits bits each, in on-chip SRAM or, when Ternary, in ternary CAM
// cells on external chips.
type Region struct {
	Name    string
	Records int
	Bits    int
	Ternary bool
	// Searched is the ternary cells one lookup activates while every other
	// allocated cell stands by (a tiled TCAM's block); 0 when a lookup
	// searches every cell of every chip (a monolithic CAM).
	Searched int
}

// Regions returns the storage of a k table with dimensions d: d's own
// regions or, when d carries only an entry count (an analytic backend
// priced without building it), the backend's AnalyticRegions.
func (k Kind) Regions(d MemDims) []Region {
	if f := Backends[k].AnalyticRegions; d.Regions == nil && f != nil {
		return f(d.Entries)
	}
	return d.Regions
}

// Per-record widths in bits, following the RTU's data layout. The
// paper's 100-entry constraint makes table storage a rounding error; at
// 10⁵–10⁶ routes it dominates the die.
const (
	seqEntryBits       = 296 // prefix 128 + length 8 + next hop 128 + iface/metric/tag 32
	treeNodeBits       = 352 // two 128-bit range bounds, two 24-bit child indices, 48-bit route reference (TreeNode.Owner)
	slotBits           = 48  // stride-trie child slot or record: 40-bit pointer + type/route tag
	leafBits           = 192 // path-compressed leaf: 136-bit prefix + 56-bit route reference
	binaryNodeBits     = 72  // binary-trie or tiled-TCAM index node: two 32-bit pointers + flags
	resultBits         = 160 // next hop, iface, metric, tag: once per route in a trie
	assocBits          = 32  // on-chip next-hop word beside each ternary entry
	ternaryBits        = 136 // ternary entry: 128 address bits + 8 length bits
	compressedNodeBits = 96  // compressed-trie node: level tag, child base, span-route list head
)

// MemSizer reports a table's storage dimensions for area/power
// co-analysis; every Table is one.
type MemSizer interface {
	MemDims() MemDims
}

// sortRoutes orders a listing by address, then prefix length — the
// deterministic order every backend's Routes returns.
func sortRoutes(rs []Route) {
	slices.SortFunc(rs, func(a, b Route) int { return a.Prefix.Cmp(b.Prefix) })
}

// routesSorted reports whether rs is what SortedRoutes would return:
// canonical prefixes, strictly ascending in (address, length) order.
func routesSorted(rs []Route) bool {
	for i := range rs {
		p := rs[i].Prefix
		if p != bits.MakePrefix(p.Addr, p.Len) || i > 0 && rs[i-1].Prefix.Cmp(p) >= 0 {
			return false
		}
	}
	return true
}

// SortedRoutes returns a copy of rs with canonical prefixes in
// (address, length) order, keeping the last of the routes that share a
// prefix: the batch form the balanced tree and the stride tries build
// from directly, so a caller that loads one route set into several
// tables sorts it once.
func SortedRoutes(rs []Route) []Route { return SortRoutesInPlace(slices.Clone(rs), nil) }

// SortRoutesInPlace sorts rs in place into SortedRoutes order and
// returns the sorted set, a prefix of rs. Unless at is nil (else it has
// len(rs)), it sets at[i] to the index in the sorted set of the route
// holding rs[i]'s prefix — its own, or the later duplicate that
// replaced it — so one array serves a caller in both orders.
//
// The sort orders keys, not the 64-byte routes, which then move once,
// cycle by cycle. The canonicalising pass ORs together how each high
// address word differs from the first, and one counting pass buckets
// the keys by the 16 bits below the set's common leading bits (fewer
// for small sets), the sort's high-order key. A bucket of up to 64
// keys is sorted by insertion, a larger one by slices.SortFunc. A
// generated set shares its top 4 bits (2000::/4) and the routes of a
// /32 provider block share a bucket: at 10⁵ routes ~15 700 of the
// 65 536 buckets are used, 8 800 by one key, none by more than 55.
func SortRoutesInPlace(rs []Route, at []int32) []Route {
	type key struct { // canonical prefix and input position
		p bits.Prefix
		i int32
	}
	// Within a prefix the later duplicate sorts first: it survives Compact.
	less := func(a, b key) bool {
		if a.p.Addr.Hi != b.p.Addr.Hi {
			return a.p.Addr.Hi < b.p.Addr.Hi
		}
		if a.p.Addr.Lo != b.p.Addr.Lo {
			return a.p.Addr.Lo < b.p.Addr.Lo
		}
		return a.p.Len < b.p.Len || a.p.Len == b.p.Len && a.i > b.i
	}
	var diff uint64
	for i := range rs {
		rs[i].Prefix = bits.MakePrefix(rs[i].Prefix.Addr, rs[i].Prefix.Len)
		diff |= rs[i].Prefix.Addr.Hi ^ rs[0].Prefix.Addr.Hi
	}
	width := min(16, mathbits.Len(uint(len(rs))), mathbits.Len64(diff))
	shift, mask := mathbits.Len64(diff)-width, uint64(1)<<width-1
	ends := make([]int32, 1<<width+1)
	for i := range rs {
		ends[(rs[i].Prefix.Addr.Hi>>shift)&mask+1]++
	}
	for b := 1; b < len(ends); b++ {
		ends[b] += ends[b-1] // where bucket b begins
	}
	keys := make([]key, len(rs))
	for i := range rs {
		b := (rs[i].Prefix.Addr.Hi >> shift) & mask
		keys[ends[b]] = key{rs[i].Prefix, int32(i)}
		ends[b]++ // finally where bucket b ends
	}
	lo := int32(0)
	for _, hi := range ends[:len(ends)-1] {
		if hi-lo > 64 {
			slices.SortFunc(keys[lo:hi], func(a, b key) int {
				if less(a, b) {
					return -1
				}
				return 1 // keys are distinct: no two share an input position
			})
		}
		for k := lo + 1; k < hi; k++ { // insertion sort: a pass on a sorted bucket
			kk, j := keys[k], k
			for ; j > lo && less(kk, keys[j-1]); j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = kk
		}
		lo = hi
	}
	// Slot k takes the route at from[k] (4 B a key, to stay in cache as
	// the cycles jump); a slot filled is marked by pointing it at itself.
	from := make([]int32, len(keys))
	kept := int32(-1) // the sorted set's last index
	for k, key := range keys {
		if k == 0 || key.p != keys[k-1].p {
			kept++
		}
		from[k] = key.i
		if at != nil {
			at[key.i] = kept
		}
	}
	for s := range from {
		if int(from[s]) == s {
			continue
		}
		held := rs[s]
		for j := s; ; {
			src := int(from[j])
			from[j] = int32(j)
			if src == s {
				rs[j] = held
				break
			}
			rs[j] = rs[src]
			j = src
		}
	}
	if int(kept) < len(rs)-1 {
		return slices.CompactFunc(rs, func(a, b Route) bool { return a.Prefix == b.Prefix })
	}
	return rs
}

// cmpPriority is the priority-encoder order shared by the CAM, the
// tiled-TCAM blocks and the multibit node scans: longest prefix first,
// address ascending within a length, so the first match is the longest.
// Prefixes are unique within a table, so the order is total.
func cmpPriority(a, b bits.Prefix) int {
	if a.Len != b.Len {
		return b.Len - a.Len
	}
	return a.Addr.Cmp(b.Addr)
}

// sortPriority sorts routes into cmpPriority order.
func sortPriority(rs []Route) {
	slices.SortFunc(rs, func(a, b Route) int { return cmpPriority(a.Prefix, b.Prefix) })
}

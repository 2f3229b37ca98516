// Package rtable provides the routing-table implementations evaluated in
// the paper's §4: sequential (linear-scan) organisation, a balanced tree
// with logarithmic search time, and a content-addressable memory (CAM)
// model, plus a binary-trie baseline used by the extension benchmarks.
//
// All implementations answer IPv6 longest-prefix-match queries and expose
// access statistics so the evaluation layer can validate the cycle costs
// charged by the TACO programs.
package rtable

import (
	"fmt"
	"slices"
	"sort"
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

// Kinds lists the implementations in the paper's Table 1 order, then the
// extension baselines.
var Kinds = []Kind{Sequential, BalancedTree, CAM, Trie, Multibit, TiledTCAM, Compressed}

// PaperKinds lists the three implementations the paper evaluates — the
// columns of its Table 1 and the only kinds with an RTU and a forwarding
// program — in the paper's order.
var PaperKinds = Kinds[:3:3]

func (k Kind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case BalancedTree:
		return "balanced-tree"
	case CAM:
		return "cam"
	case Trie:
		return "trie"
	case Multibit:
		return "multibit"
	case TiledTCAM:
		return "tiled-tcam"
	case Compressed:
		return "compressed"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindNames returns every valid kind name, sorted — the vocabulary the
// strict parsers (KindByName, UnmarshalJSON, cliutil) quote in errors.
func KindNames() []string {
	names := make([]string, len(Kinds))
	for i, k := range Kinds {
		names[i] = k.String()
	}
	sort.Strings(names)
	return names
}

// KindByName parses a canonical kind name (the String form). It is the
// single strict parser shared by JSON round-trips and the CLI layer:
// unknown names are rejected with the sorted list of valid names.
func KindByName(name string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("rtable: unknown table kind %q (valid: %s)",
		name, strings.Join(KindNames(), " | "))
}

// MarshalJSON renders the kind by name, keeping metric exports readable.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// UnmarshalJSON accepts the MarshalJSON form (a kind name) or a bare
// integer, so serialized configs — forensic bundles in particular —
// round-trip. Both forms are strict: unknown names and out-of-range
// integers are rejected with the sorted list of valid names, matching
// the cliutil error path.
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

// New constructs an empty table of the given kind.
func New(k Kind) Table {
	switch k {
	case Sequential:
		return NewSequential()
	case BalancedTree:
		return NewBalancedTree()
	case CAM:
		return NewCAM(DefaultCAMConfig())
	case Trie:
		return NewTrie()
	case Multibit:
		return NewMultibit(DefaultMultibitConfig())
	case TiledTCAM:
		return NewTiledTCAM(DefaultTiledTCAMConfig())
	case Compressed:
		return NewCompressed(DefaultCompressedConfig())
	}
	panic(fmt.Sprintf("rtable: unknown kind %d", int(k)))
}

// MemDims sizes a table's storage in implementation-level units so the
// estimation layer can price the SRAM (or CAM) the organisation needs.
// Only the fields meaningful for the kind are non-zero.
type MemDims struct {
	Entries     int // installed prefixes (all kinds)
	TreeNodes   int // balanced-tree range nodes
	BinaryNodes int // binary trie nodes
	TrieNodes   int // multibit internal nodes
	TrieSlots   int // multibit expanded child slots (Σ 2^stride per node)
	TrieLeaves  int // multibit path-compressed leaf records

	TCAMBlocks  int // tiled-TCAM allocated ternary blocks
	TCAMEntries int // tiled-TCAM occupied ternary entries (incl. covering copies)
	IndexNodes  int // tiled-TCAM index-stage SRAM nodes

	CompressedNodes  int // compressed-trie internal nodes
	CompressedSlots  int // compressed-trie bitmap bits (Σ 2^stride per node)
	CompressedKids   int // compressed-trie occupied child records
	CompressedLeaves int // compressed-trie path-compressed leaf records
}

// MemSizer is implemented by tables that can report their storage
// dimensions for area/power co-analysis.
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
func SortedRoutes(rs []Route) []Route {
	type key struct { // canonical prefix and input position
		p bits.Prefix
		i int32
	}
	keys := make([]key, len(rs))
	for i := range rs {
		keys[i] = key{bits.MakePrefix(rs[i].Prefix.Addr, rs[i].Prefix.Len), int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := a.p.Cmp(b.p); c != 0 {
			return c
		}
		return int(b.i - a.i) // the later duplicate first: it survives Compact
	})
	keys = slices.CompactFunc(keys, func(a, b key) bool { return a.p == b.p })
	out := make([]Route, len(keys))
	for i, k := range keys {
		out[i] = rs[k.i]
		out[i].Prefix = k.p
	}
	return out
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

package rtable

import (
	"fmt"
	"slices"
	"sort"

	"taco/internal/bits"
)

// TiledTCAMConfig parameterises the MashUp-style tiled-TCAM table: the
// prefix trie is partitioned into subtree tiles, each mapped onto one
// ternary block of BlockSize entries. An SRAM index stage selects the
// tile for a destination; only the selected block is activated for the
// ternary search — the power lever the tiling buys (a monolithic TCAM
// activates every entry on every search).
type TiledTCAMConfig struct {
	// BlockSize is the ternary-entry capacity of one tile block. It must
	// be at least MinTiledBlockSize: a /128 destination can be covered by
	// up to 129 nested prefixes (lengths 0..128), all of which must live
	// in the one tile the index selects for it, so no split can reduce a
	// tile below that bound.
	BlockSize int
	// MergeFill is the occupancy fraction (of BlockSize) below which two
	// sibling tiles collapse back into their parent on delete, bounding
	// tile-count growth under churn. 0 disables merging.
	MergeFill float64
}

// MinTiledBlockSize is the smallest block a tile can always be split
// down to: the maximal nested-prefix chain over one address (129
// entries, /0 through /128) is unsplittable by construction.
const MinTiledBlockSize = 129

// DefaultTiledTCAMConfig returns the reference geometry: 256-entry
// blocks (a common TCAM sub-array size) merged back below half fill.
func DefaultTiledTCAMConfig() TiledTCAMConfig {
	return TiledTCAMConfig{BlockSize: 256, MergeFill: 0.5}
}

// Validate checks the tile geometry.
func (c TiledTCAMConfig) Validate() error {
	if c.BlockSize < MinTiledBlockSize {
		return fmt.Errorf("rtable: tiled-TCAM block size %d below minimum %d (maximal nested-prefix chain)",
			c.BlockSize, MinTiledBlockSize)
	}
	if c.MergeFill < 0 || c.MergeFill > 1 {
		return fmt.Errorf("rtable: tiled-TCAM merge fill %g outside [0,1]", c.MergeFill)
	}
	return nil
}

// ttNode is one node of the index stage: a full binary trie whose
// leaves are tiles. Internal nodes always carry both children (a split
// partitions the parent span completely), so the index has no
// single-child chains and one node visit — one SRAM access — consumes
// one address bit.
type ttNode struct {
	depth int
	child [2]*ttNode // nil iff leaf
	tile  *ttTile    // non-nil iff leaf
}

func (n *ttNode) leaf() bool { return n.tile != nil }

// ttTile is one tile: the ternary block holding every route whose span
// intersects the tile's span. Entries are kept longest-prefix first —
// the block's priority-encoder order — so the first match wins. A route
// r is *owned* by the tile containing r.Prefix.Addr (unique, because
// tiles partition the address space); tiles deeper inside r's span hold
// covering *copies*, the replication cost the MashUp accounting tracks.
type ttTile struct {
	prefix  bits.Prefix
	entries []Route // priority order: longest prefix first
}

// insert adds or replaces r in the block, keeping priority order.
func (t *ttTile) insert(r Route) {
	for i := range t.entries {
		if t.entries[i].Prefix == r.Prefix {
			t.entries[i] = r
			return
		}
	}
	t.entries = append(t.entries, r)
	for i := len(t.entries) - 1; i > 0; i-- {
		a, b := &t.entries[i-1], &t.entries[i]
		if a.Prefix.Len > b.Prefix.Len ||
			(a.Prefix.Len == b.Prefix.Len && a.Prefix.Addr.Less(b.Prefix.Addr)) {
			break
		}
		*a, *b = *b, *a
	}
}

// remove deletes the entry for p; it reports whether p was present.
func (t *ttTile) remove(p bits.Prefix) bool {
	for i := range t.entries {
		if t.entries[i].Prefix == p {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return true
		}
	}
	return false
}

// TiledTCAMTable is the MashUp-style routing table: an SRAM index trie
// partitioning the address space into subtree tiles, one priority-
// encoded ternary block per tile, with tile-count, occupancy, probe and
// replication accounting. Unlike the monolithic CAM it has no hard
// capacity limit — overflowing tiles split — and unlike the CAM's
// all-entry search, one lookup activates a single block.
type TiledTCAMTable struct {
	cfg   TiledTCAMConfig
	root  *ttNode
	count int // installed prefixes

	tiles      int // live tiles (= allocated blocks)
	indexNodes int // internal index nodes
	occupied   int // Σ tile entries, owned + covering copies
	splits     int64
	merges     int64

	stats       Stats
	indexProbes int64   // index-stage SRAM accesses
	tileProbes  int64   // ternary block activations
	depthProbes []int64 // index probes by node depth (tile search charged at len)
}

// NewTiledTCAM returns an empty tiled-TCAM table; it panics on invalid
// geometry (use TiledTCAMConfig.Validate to check first).
func NewTiledTCAM(cfg TiledTCAMConfig) *TiledTCAMTable {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &TiledTCAMTable{cfg: cfg}
	t.root = &ttNode{depth: 0, tile: &ttTile{prefix: bits.MakePrefix(bits.Word128{}, 0)}}
	t.tiles = 1
	return t
}

// Kind implements Table.
func (t *TiledTCAMTable) Kind() Kind { return TiledTCAM }

// Config returns the tile geometry.
func (t *TiledTCAMTable) Config() TiledTCAMConfig { return t.cfg }

// tilesFor visits every tile whose span intersects p's span: descend
// the index along p's address bits while the node is deeper than p ends
// (those nodes' spans contain p's span), then every leaf of the
// remaining subtree (their spans partition p's span). This is exactly
// the set of blocks holding p — its owner plus its covering copies.
func (t *TiledTCAMTable) tilesFor(p bits.Prefix, fn func(*ttTile)) {
	n := t.root
	for !n.leaf() && n.depth < p.Len {
		n = n.child[p.Addr.Bit(n.depth)]
	}
	var walk func(*ttNode)
	walk = func(n *ttNode) {
		if n.leaf() {
			fn(n.tile)
			return
		}
		walk(n.child[0])
		walk(n.child[1])
	}
	walk(n)
}

// ownerNode returns the index leaf owning address a.
func (t *TiledTCAMTable) ownerNode(a bits.Word128) *ttNode {
	n := t.root
	for !n.leaf() {
		n = n.child[a.Bit(n.depth)]
	}
	return n
}

// Insert adds or replaces the route for r.Prefix, splitting any tile
// the insertion pushes past the block budget.
func (t *TiledTCAMTable) Insert(r Route) error {
	r.Prefix = bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
	var over []*ttNode
	// A single descent decides replace-vs-add on the owner block; the
	// update then applies to every intersecting block so copies never
	// drift from their owner.
	added := !ownerHolds(t.ownerNode(r.Prefix.Addr).tile, r.Prefix)
	t.tilesFor(r.Prefix, func(tile *ttTile) {
		before := len(tile.entries)
		tile.insert(r)
		t.occupied += len(tile.entries) - before
	})
	if added {
		t.count++
	}
	// Splits cascade: redistribution can leave a child over budget too,
	// so collect over-budget leaves until a fixpoint.
	t.tilesFor(r.Prefix, func(tile *ttTile) {
		if len(tile.entries) > t.cfg.BlockSize {
			over = append(over, t.ownerNode(tile.prefix.Addr))
		}
	})
	for _, n := range over {
		t.splitToBudget(n)
	}
	return nil
}

func ownerHolds(tile *ttTile, p bits.Prefix) bool {
	for i := range tile.entries {
		if tile.entries[i].Prefix == p {
			return true
		}
	}
	return false
}

// splitToBudget splits the leaf at n (and any over-budget descendants)
// until every resulting tile fits its block. Termination: each split
// consumes one address bit, and at depth 128 a tile holds at most the
// 129-entry nested chain over its single address — within any legal
// BlockSize.
func (t *TiledTCAMTable) splitToBudget(n *ttNode) {
	if !n.leaf() || len(n.tile.entries) <= t.cfg.BlockSize || n.depth >= 128 {
		return
	}
	parent := n.tile
	d := n.depth
	c0 := &ttNode{depth: d + 1, tile: &ttTile{prefix: bits.MakePrefix(parent.prefix.Addr, d+1)}}
	oneBit := bits.Mask(d + 1).And(bits.Mask(d).Not())
	c1 := &ttNode{depth: d + 1, tile: &ttTile{prefix: bits.MakePrefix(parent.prefix.Addr.Or(oneBit), d+1)}}
	t.occupied -= len(parent.entries)
	for _, r := range parent.entries {
		if r.Prefix.Len <= d {
			// Ends at or above the split: covers both child spans.
			c0.tile.insert(r)
			c1.tile.insert(r)
			continue
		}
		if r.Prefix.Addr.Bit(d) == 0 {
			c0.tile.insert(r)
		} else {
			c1.tile.insert(r)
		}
	}
	t.occupied += len(c0.tile.entries) + len(c1.tile.entries)
	n.tile = nil
	n.child[0], n.child[1] = c0, c1
	t.tiles++ // one leaf became two
	t.indexNodes++
	t.splits++
	t.splitToBudget(c0)
	t.splitToBudget(c1)
}

// InsertAll implements BulkLoader. An empty table is built top-down in
// one pass (bulkLoad). A table that already holds routes takes them one
// by one, shortest prefix first, so covering prefixes are installed
// while the tiling is still coarse and propagate through splits instead
// of walking every tile in their span; the stable sort keeps last-wins
// for duplicate prefixes.
func (t *TiledTCAMTable) InsertAll(rs []Route) error {
	if t.count == 0 && t.root.leaf() {
		t.bulkLoad(rs)
		return nil
	}
	ordered := append([]Route(nil), rs...)
	slices.SortStableFunc(ordered, func(a, b Route) int {
		if a.Prefix.Len != b.Prefix.Len {
			return a.Prefix.Len - b.Prefix.Len
		}
		return a.Prefix.Addr.Cmp(b.Prefix.Addr)
	})
	for _, r := range ordered {
		if err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// bulkLoad replaces the empty root with the tiling the insert loop
// would reach, which with inserts only is canonical: an index node at
// depth d is internal iff more than BlockSize routes intersect its span
// (and d < 128), and a leaf holds exactly those routes in priority
// order. rs is only read.
//
// The recursion runs on the routes in (address, length) order — the
// form a sweep hands every table; other input is sorted into it first,
// SortedRoutes keeping the last of equal prefixes. In that order the
// routes nested in a span (length >= its own) are one contiguous run,
// and address bit d splits the run of a depth-d span at a point one
// binary search finds: no pass over the routes per index level, and
// priority order is only ever needed within one block, where one
// counting pass over prefix length gives it.
func (t *TiledTCAMTable) bulkLoad(rs []Route) {
	if !routesSorted(rs) {
		rs = SortedRoutes(rs)
	}
	// cover stacks the shorter prefixes containing all of the current
	// span — prefixes of the path, so at most one per length. Every
	// cover entry is shorter than every run entry: a leaf's priority
	// order is the run's, then cover from the top of the stack down.
	var cover []Route
	var build func(span bits.Prefix, run []Route) *ttNode
	build = func(span bits.Prefix, run []Route) *ttNode {
		d := span.Len
		if len(run)+len(cover) <= t.cfg.BlockSize || d >= 128 {
			// A block is a fixed-size array: allocated whole, so updates
			// into a tile with room never reallocate.
			entries := make([]Route, len(run), t.cfg.BlockSize)
			byLengthDown(entries, run)
			for i := len(cover) - 1; i >= 0; i-- {
				entries = append(entries, cover[i])
			}
			t.tiles++
			t.occupied += len(entries)
			return &ttNode{depth: d, tile: &ttTile{prefix: span, entries: entries}}
		}
		// The span's own prefix, if installed, heads the run and covers
		// both halves. (The run is not empty: cover alone holds at most
		// d < BlockSize entries.)
		covers := len(cover)
		if run[0].Prefix.Len == d {
			cover = append(cover, run[0])
			run = run[1:]
		}
		// The rest share the span's d address bits; bit d splits them.
		ones := sort.Search(len(run), func(i int) bool { return run[i].Prefix.Addr.Bit(d) == 1 })
		oneBit := bits.Mask(d + 1).And(bits.Mask(d).Not())
		n := &ttNode{depth: d}
		n.child[0] = build(bits.MakePrefix(span.Addr, d+1), run[:ones])
		n.child[1] = build(bits.MakePrefix(span.Addr.Or(oneBit), d+1), run[ones:])
		cover = cover[:covers]
		t.indexNodes++
		t.splits++
		return n
	}

	t.count = len(rs)
	t.tiles = 0 // the empty root tile is replaced
	t.root = build(bits.MakePrefix(bits.Word128{}, 0), rs)
}

// byLengthDown copies run, in (address, length) order, into dst in
// priority order: one stable counting pass over prefix length, longest
// first, keeps address order within a length.
func byLengthDown(dst, run []Route) {
	var at [129 + 1]int // at[128-l]: where length l begins
	for i := range run {
		at[128-run[i].Prefix.Len+1]++
	}
	for l := 1; l < len(at); l++ {
		at[l] += at[l-1]
	}
	for i := range run {
		l := 128 - run[i].Prefix.Len
		dst[at[l]] = run[i]
		at[l]++
	}
}

// Delete removes the route for p from its owner tile and every covering
// copy, then merges underfilled sibling tiles back along the path.
func (t *TiledTCAMTable) Delete(p bits.Prefix) bool {
	p = bits.MakePrefix(p.Addr, p.Len)
	if !ownerHolds(t.ownerNode(p.Addr).tile, p) {
		return false
	}
	t.tilesFor(p, func(tile *ttTile) {
		if tile.remove(p) {
			t.occupied--
		}
	})
	t.count--
	t.mergePath(p.Addr)
	return true
}

// mergePath walks the index path for a, collapsing sibling leaf pairs
// whose merged occupancy sits below the merge threshold. Bottom-up: a
// child merge can enable its parent's.
func (t *TiledTCAMTable) mergePath(a bits.Word128) {
	if t.cfg.MergeFill <= 0 {
		return
	}
	var path []*ttNode
	n := t.root
	for !n.leaf() {
		path = append(path, n)
		n = n.child[a.Bit(n.depth)]
	}
	limit := int(t.cfg.MergeFill * float64(t.cfg.BlockSize))
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		c0, c1 := p.child[0], p.child[1]
		if !c0.leaf() || !c1.leaf() {
			break
		}
		if mergedSize(c0.tile, c1.tile, p.depth) > limit {
			break
		}
		merged := t.mergedEntries(c0.tile, c1.tile, p.depth)
		t.occupied += len(merged) - len(c0.tile.entries) - len(c1.tile.entries)
		p.tile = &ttTile{prefix: bits.MakePrefix(c0.tile.prefix.Addr, p.depth), entries: merged}
		p.child[0], p.child[1] = nil, nil
		t.tiles--
		t.indexNodes--
		t.merges++
	}
}

// mergedSize is len(mergedEntries(c0, c1, depth)) without building it:
// c1's covering copies (prefixes ending at or above depth) are already
// in c0, and c1's own entries, all under c1's half, cannot be.
func mergedSize(c0, c1 *ttTile, depth int) int {
	n := len(c0.entries)
	for i := range c1.entries {
		if c1.entries[i].Prefix.Len > depth {
			n++
		}
	}
	return n
}

// mergedEntries unions two sibling blocks, collapsing the covering
// copies (prefixes ending at or above the parent depth) both hold.
func (t *TiledTCAMTable) mergedEntries(c0, c1 *ttTile, depth int) []Route {
	out := append([]Route(nil), c0.entries...)
	merged := &ttTile{entries: out}
	for _, r := range c1.entries {
		if r.Prefix.Len <= depth {
			continue // covering copy, already present via c0
		}
		merged.insert(r)
	}
	return merged.entries
}

// Lookup descends the index (one probe per node) to the single tile
// owning addr, then activates that one ternary block (one probe): the
// priority-encoded first match is the longest prefix, because the
// block holds every route — owned or covering — whose span includes
// addr.
func (t *TiledTCAMTable) Lookup(addr bits.Word128) (Route, bool) {
	t.stats.Lookups++
	n := t.root
	for !n.leaf() {
		t.stats.Probes++
		t.indexProbes++
		t.recordDepth(n.depth)
		n = n.child[addr.Bit(n.depth)]
	}
	t.stats.Probes++
	t.tileProbes++
	t.recordDepth(n.depth)
	for i := range n.tile.entries {
		if n.tile.entries[i].Prefix.Contains(addr) {
			return n.tile.entries[i], true
		}
	}
	return Route{}, false
}

func (t *TiledTCAMTable) recordDepth(d int) {
	for len(t.depthProbes) <= d {
		t.depthProbes = append(t.depthProbes, 0)
	}
	t.depthProbes[d]++
}

// Len returns the number of installed prefixes (owner entries only;
// covering copies are accounting, not routes).
func (t *TiledTCAMTable) Len() int { return t.count }

// Routes returns the installed routes in deterministic order: each
// route is reported once, by its owner tile.
func (t *TiledTCAMTable) Routes() []Route {
	out := make([]Route, 0, t.count)
	var walk func(n *ttNode)
	walk = func(n *ttNode) {
		if n.leaf() {
			for _, r := range n.tile.entries {
				if t.owns(n, r.Prefix) {
					out = append(out, r)
				}
			}
			return
		}
		walk(n.child[0])
		walk(n.child[1])
	}
	walk(t.root)
	sortRoutes(out)
	return out
}

// owns reports whether the leaf n is r's owner (the tile containing the
// route's canonical address).
func (t *TiledTCAMTable) owns(n *ttNode, p bits.Prefix) bool {
	return t.ownerNode(p.Addr) == n
}

// Stats implements Table.
func (t *TiledTCAMTable) Stats() Stats { return t.stats }

// ResetStats implements Table.
func (t *TiledTCAMTable) ResetStats() {
	t.stats = Stats{}
	t.indexProbes, t.tileProbes = 0, 0
	for i := range t.depthProbes {
		t.depthProbes[i] = 0
	}
}

// IndexProbes and TileProbes split Stats.Probes into the two pipeline
// stages: SRAM index accesses and ternary block activations (exactly
// one per lookup). Their sum always equals Stats.Probes — the identity
// the scaling model's bench guard pins.
func (t *TiledTCAMTable) IndexProbes() int64 { return t.indexProbes }
func (t *TiledTCAMTable) TileProbes() int64  { return t.tileProbes }

// DepthProbes returns the probe histogram by index depth accumulated
// since the last ResetStats; the entry at a tile's depth includes its
// block activations.
func (t *TiledTCAMTable) DepthProbes() []int64 {
	return append([]int64(nil), t.depthProbes...)
}

// TileStats reports the tiling state: live tiles (= allocated blocks),
// internal index nodes, total occupied ternary entries including
// covering copies, the fullest block, and the split/merge totals.
type TileStats struct {
	Tiles         int
	IndexNodes    int
	OccupiedSlots int
	MaxOccupancy  int
	Splits        int64
	Merges        int64
}

// TileStats returns the current tiling state.
func (t *TiledTCAMTable) TileStats() TileStats {
	ts := TileStats{
		Tiles: t.tiles, IndexNodes: t.indexNodes, OccupiedSlots: t.occupied,
		Splits: t.splits, Merges: t.merges,
	}
	var walk func(n *ttNode)
	walk = func(n *ttNode) {
		if n.leaf() {
			if len(n.tile.entries) > ts.MaxOccupancy {
				ts.MaxOccupancy = len(n.tile.entries)
			}
			return
		}
		walk(n.child[0])
		walk(n.child[1])
	}
	walk(t.root)
	return ts
}

// ReplicationFactor is occupied ternary entries per installed route —
// the tiling's copy overhead (1.0 means no covering copies).
func (t *TiledTCAMTable) ReplicationFactor() float64 {
	if t.count == 0 {
		return 1
	}
	return float64(t.occupied) / float64(t.count)
}

// MemDims implements MemSizer: the index-stage SRAM nodes, an on-chip
// next-hop word per occupied entry (covering copies included), and the
// block budget worth of ternary cells per tile, of which a lookup
// activates one block.
func (t *TiledTCAMTable) MemDims() MemDims {
	return MemDims{Entries: t.count, Regions: []Region{
		{Name: "index nodes", Records: t.indexNodes, Bits: binaryNodeBits},
		{Name: "next hops", Records: t.occupied, Bits: assocBits},
		{Name: "cells", Records: t.tiles * t.cfg.BlockSize, Bits: ternaryBits, Ternary: true, Searched: t.cfg.BlockSize},
	}}
}

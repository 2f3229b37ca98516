package rtable

import (
	"math/bits"

	tbits "taco/internal/bits"
)

// CompressedConfig parameterises the CRAM-style compressed trie: the
// same stride schedule as the multibit table, but each node stores its
// children as a 2^stride occupancy bitmap plus a rank-indexed compact
// array holding only the occupied slots — the Lulea/tree-bitmap idiom.
// The lookup path is bit-for-bit the multibit walk (same nodes, same
// probe counts); only the storage representation changes: one bit per
// expanded slot instead of a full pointer, which is where the
// CRAM-lens "scale IP lookup to large databases" headline comes from.
type CompressedConfig struct {
	Strides []int
}

// DefaultCompressedConfig mirrors the multibit reference schedule so
// the two backends are directly comparable probe-for-probe.
func DefaultCompressedConfig() CompressedConfig {
	return CompressedConfig{Strides: append([]int(nil), DefaultMultibitStrides...)}
}

// Validate checks the stride schedule (same constraints as multibit).
func (c CompressedConfig) Validate() error {
	return MultibitConfig{Strides: c.Strides}.Validate()
}

// cpChild is one occupied slot: an internal next-level node or a
// path-compressed single-route leaf, exactly as in the multibit trie.
type cpChild struct {
	node *cpNode
	leaf *Route
}

// cpNode is one compressed trie level. The children of the 2^stride
// expanded span live in a bitmap (one bit per slot) plus a compact
// array ordered by slot index; child lookup is bit-test + popcount
// rank, one SRAM word access in hardware. Span routes are kept longest
// first, as in mbNode.
type cpNode struct {
	level  int
	routes []Route // prefixes ending in this span, longest first
	bitmap []uint64
	kids   []cpChild // kids[rank(bitmap, key)] for each set bit, slot order
	count  int       // routes stored in this subtree
}

// hasChild reports whether slot key is occupied.
func (n *cpNode) hasChild(key uint32) bool {
	return n.bitmap[key>>6]&(1<<(key&63)) != 0
}

// rank counts occupied slots strictly below key: the index of key's
// child in the compact array.
func (n *cpNode) rank(key uint32) int {
	r := 0
	for _, w := range n.bitmap[:key>>6] {
		r += bits.OnesCount64(w)
	}
	return r + bits.OnesCount64(n.bitmap[key>>6]&(1<<(key&63)-1))
}

// setChild installs c at slot key, shifting the compact array.
func (n *cpNode) setChild(key uint32, c cpChild) {
	i := n.rank(key)
	if n.hasChild(key) {
		n.kids[i] = c
		return
	}
	n.bitmap[key>>6] |= 1 << (key & 63)
	n.kids = append(n.kids, cpChild{})
	copy(n.kids[i+1:], n.kids[i:])
	n.kids[i] = c
}

// clearChild removes slot key from the bitmap and compact array.
func (n *cpNode) clearChild(key uint32) {
	i := n.rank(key)
	n.bitmap[key>>6] &^= 1 << (key & 63)
	n.kids = append(n.kids[:i], n.kids[i+1:]...)
}

// CompressedTable is the CRAM-style compressed routing table: the
// multibit-stride trie with bitmap-compressed child arrays. Lookups
// visit exactly the nodes the multibit table would (identical per-level
// probe histograms — a property the test wall pins), while MemDims
// reports the compressed storage: bitmap bits plus occupied child
// records instead of fully expanded slot arrays.
type CompressedTable struct {
	cfg  CompressedConfig
	offs []int // offs[i] = bits consumed before level i; offs[len] = 128

	root  *cpNode
	count int

	nodesPerLevel []int
	kidSlots      int // occupied compact child records across all nodes
	leaves        int

	stats       Stats
	levelProbes []int64
}

// NewCompressed returns an empty compressed trie; it panics on an
// invalid stride schedule (use CompressedConfig.Validate first).
func NewCompressed(cfg CompressedConfig) *CompressedTable {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	offs := make([]int, len(cfg.Strides)+1)
	for i, s := range cfg.Strides {
		offs[i+1] = offs[i] + s
	}
	t := &CompressedTable{
		cfg:           cfg,
		offs:          offs,
		nodesPerLevel: make([]int, len(cfg.Strides)),
		levelProbes:   make([]int64, len(cfg.Strides)+1),
	}
	t.root = t.newNode(0)
	return t
}

// Kind implements Table.
func (t *CompressedTable) Kind() Kind { return Compressed }

// Config returns the stride schedule.
func (t *CompressedTable) Config() CompressedConfig { return t.cfg }

func (t *CompressedTable) newNode(level int) *cpNode {
	t.nodesPerLevel[level]++
	words := (1 << uint(t.cfg.Strides[level])) / 64
	if words == 0 {
		words = 1
	}
	return &cpNode{level: level, bitmap: make([]uint64, words)}
}

// childKey and endsAt are shared with the multibit walk by
// construction: same strides, same offsets.
func (t *CompressedTable) childKey(addr tbits.Word128, level int) uint32 {
	stride := t.cfg.Strides[level]
	shifted := addr.Shr(uint(128 - t.offs[level] - stride))
	return uint32(shifted.Lo) & (1<<uint(stride) - 1)
}

func (t *CompressedTable) endsAt(ln, level int) bool { return ln <= t.offs[level+1] }

// Insert adds or replaces the route for r.Prefix.
func (t *CompressedTable) Insert(r Route) error {
	r.Prefix = tbits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
	if t.insertAt(t.root, r) {
		t.count++
	}
	return nil
}

func (t *CompressedTable) insertAt(n *cpNode, r Route) (added bool) {
	if t.endsAt(r.Prefix.Len, n.level) {
		for i := range n.routes {
			if n.routes[i].Prefix == r.Prefix {
				n.routes[i] = r
				return false
			}
		}
		n.routes = append(n.routes, r)
		sortPriority(n.routes)
		n.count++
		return true
	}
	key := t.childKey(r.Prefix.Addr, n.level)
	if !n.hasChild(key) {
		rc := r
		n.setChild(key, cpChild{leaf: &rc})
		t.kidSlots++
		t.leaves++
		n.count++
		return true
	}
	c := n.kids[n.rank(key)]
	if c.leaf != nil {
		if c.leaf.Prefix == r.Prefix {
			*c.leaf = r
			return false
		}
		// Slot collision: grow an internal node and push both routes
		// down, re-diverging at their first differing stride.
		child := t.newNode(n.level + 1)
		old := *c.leaf
		t.leaves--
		t.insertAt(child, old)
		added = t.insertAt(child, r)
		n.setChild(key, cpChild{node: child})
		if added {
			n.count++
		}
		return added
	}
	added = t.insertAt(c.node, r)
	if added {
		n.count++
	}
	return added
}

// InsertAll implements BulkLoader; inserts are node-local, so the bulk
// path is the plain loop.
func (t *CompressedTable) InsertAll(rs []Route) error {
	for _, r := range rs {
		if err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the route for p, re-compressing the path exactly as
// the multibit table does.
func (t *CompressedTable) Delete(p tbits.Prefix) bool {
	p = tbits.MakePrefix(p.Addr, p.Len)
	if !t.deleteAt(t.root, p) {
		return false
	}
	t.count--
	return true
}

func (t *CompressedTable) deleteAt(n *cpNode, p tbits.Prefix) bool {
	if t.endsAt(p.Len, n.level) {
		for i := range n.routes {
			if n.routes[i].Prefix == p {
				n.routes = append(n.routes[:i], n.routes[i+1:]...)
				n.count--
				return true
			}
		}
		return false
	}
	key := t.childKey(p.Addr, n.level)
	if !n.hasChild(key) {
		return false
	}
	c := n.kids[n.rank(key)]
	if c.leaf != nil {
		if c.leaf.Prefix != p {
			return false
		}
		n.clearChild(key)
		t.kidSlots--
		t.leaves--
		n.count--
		return true
	}
	if !t.deleteAt(c.node, p) {
		return false
	}
	n.count--
	switch c.node.count {
	case 0:
		t.releaseSubtree(c.node)
		n.clearChild(key)
		t.kidSlots--
	case 1:
		r := t.loneRoute(c.node)
		t.releaseSubtree(c.node)
		rc := r
		n.setChild(key, cpChild{leaf: &rc})
		t.leaves++
	}
	return true
}

// loneRoute returns the single route left in a count-1 subtree.
func (t *CompressedTable) loneRoute(n *cpNode) Route {
	for {
		if len(n.routes) == 1 {
			return n.routes[0]
		}
		c := n.kids[0] // count==1: exactly one child exists
		if c.leaf != nil {
			return *c.leaf
		}
		n = c.node
	}
}

// releaseSubtree returns a collapsed subtree's nodes, child records and
// leaves to the accounting counters.
func (t *CompressedTable) releaseSubtree(n *cpNode) {
	t.nodesPerLevel[n.level]--
	t.kidSlots -= len(n.kids)
	for _, c := range n.kids {
		if c.leaf != nil {
			t.leaves--
			continue
		}
		t.releaseSubtree(c.node)
	}
}

// Lookup walks one node per level exactly as MultibitTable.Lookup does
// — same nodes, same leaf probes, same per-level accounting. A node
// visit costs one probe: in hardware the bitmap word, rank and compact
// slot live in the same SRAM line (the compression is why they fit).
func (t *CompressedTable) Lookup(addr tbits.Word128) (Route, bool) {
	t.stats.Lookups++
	var best *Route
	n := t.root
	for n != nil {
		t.stats.Probes++
		t.levelProbes[n.level]++
		for i := range n.routes { // longest first: first hit wins in-node
			if n.routes[i].Prefix.Contains(addr) {
				best = &n.routes[i]
				break
			}
		}
		key := t.childKey(addr, n.level)
		if !n.hasChild(key) {
			break
		}
		c := n.kids[n.rank(key)]
		if c.leaf != nil {
			t.stats.Probes++
			t.levelProbes[n.level+1]++
			if c.leaf.Prefix.Contains(addr) {
				best = c.leaf
			}
			break
		}
		n = c.node
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// Len returns the number of installed prefixes.
func (t *CompressedTable) Len() int { return t.count }

// Routes returns the installed routes in deterministic order. Unlike
// the map-backed multibit node, the compact array is already slot-
// ordered, so the walk itself is deterministic before the final sort.
func (t *CompressedTable) Routes() []Route {
	out := make([]Route, 0, t.count)
	var walk func(n *cpNode)
	walk = func(n *cpNode) {
		out = append(out, n.routes...)
		for _, c := range n.kids {
			if c.leaf != nil {
				out = append(out, *c.leaf)
				continue
			}
			walk(c.node)
		}
	}
	walk(t.root)
	sortRoutes(out)
	return out
}

// Stats implements Table.
func (t *CompressedTable) Stats() Stats { return t.stats }

// ResetStats implements Table.
func (t *CompressedTable) ResetStats() {
	t.stats = Stats{}
	for i := range t.levelProbes {
		t.levelProbes[i] = 0
	}
}

// LevelProbes returns the per-level probe histogram accumulated since
// the last ResetStats, in the same shape as MultibitTable.LevelProbes —
// the two are equal for identical insert/delete/lookup sequences.
func (t *CompressedTable) LevelProbes() []int64 {
	return append([]int64(nil), t.levelProbes...)
}

// Depth mirrors MultibitTable.Depth.
func (t *CompressedTable) Depth() int {
	d := 0
	for lvl, n := range t.nodesPerLevel {
		if n > 0 {
			d = lvl + 1
		}
	}
	if t.leaves > 0 {
		d++
	}
	return d
}

// MemDims implements MemSizer: per node one 2^stride occupancy bitmap
// (CompressedSlots counts those bits — what the multibit table would
// spend a full slot on) plus only the occupied child records
// (CompressedKids) and path-compressed leaves. The Slots-to-Kids gap is
// the compression ratio the estimation layer prices.
func (t *CompressedTable) MemDims() MemDims {
	dims := MemDims{
		Entries:          t.count,
		CompressedKids:   t.kidSlots,
		CompressedLeaves: t.leaves,
	}
	for lvl, n := range t.nodesPerLevel {
		dims.CompressedNodes += n
		dims.CompressedSlots += n << uint(t.cfg.Strides[lvl])
	}
	return dims
}

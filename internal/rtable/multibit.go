package rtable

import (
	"fmt"

	"taco/internal/bits"
)

// MultibitConfig parameterises the multibit-stride trie: Strides lists
// the number of address bits consumed per trie level, most significant
// first, and must sum to 128. Wider strides trade SRAM (each node
// models a 2^stride expanded slot array in hardware) for fewer memory
// accesses per lookup — the classic controlled-prefix-expansion /
// LC-trie trade-off that decides which organisation wins once the
// database grows past the paper's 100-entry constraint.
type MultibitConfig struct {
	Strides []int
}

// DefaultMultibitStrides is a 16-8-8-… schedule: one wide root level
// (IPv6 allocations share little structure above /16) followed by
// byte-sized strides down to /128. 15 levels total.
var DefaultMultibitStrides = []int{16, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}

// DefaultMultibitConfig returns the stride schedule used by rtable.New.
func DefaultMultibitConfig() MultibitConfig {
	return MultibitConfig{Strides: append([]int(nil), DefaultMultibitStrides...)}
}

// Validate checks the stride schedule.
func (c MultibitConfig) Validate() error {
	if len(c.Strides) == 0 {
		return fmt.Errorf("rtable: multibit config needs at least one stride")
	}
	sum := 0
	for i, s := range c.Strides {
		if s < 1 || s > 16 {
			return fmt.Errorf("rtable: multibit stride %d at level %d out of range 1..16", s, i)
		}
		sum += s
	}
	if sum != 128 {
		return fmt.Errorf("rtable: multibit strides sum to %d, want 128", sum)
	}
	return nil
}

// mbChild is one occupied slot of a node's child array: either an
// internal next-level node, or — path compression — a single route
// whose prefix extends beyond this node's span. Storing lone routes as
// leaves keeps sparse tails (a solitary /64 under an otherwise empty
// /24 slot) from materialising a chain of one-child nodes.
type mbChild struct {
	node *mbNode
	leaf *Route
}

// mbNode is one trie level: routes whose prefix ends inside the node's
// bit span, plus children for routes that extend deeper. In hardware
// the node is a 2^stride expanded slot array (controlled prefix
// expansion); in this software model the span routes are kept as a
// longest-first list and a node visit is accounted as a single probe,
// matching the one-SRAM-access-per-level cost the expansion buys.
type mbNode struct {
	level    int
	routes   []Route // prefixes ending in this span, longest first
	children map[uint32]mbChild
	count    int // routes stored in this subtree
}

// MultibitTable is a multibit-stride (LC-trie-style) routing table:
// fixed per-level strides, path-compressed single-route leaves, and
// per-level probe accounting. It is the scaling-study backend — not in
// the paper's Table 1, but the organisation related work (CRAM, MashUp)
// shows winning on 10⁵–10⁶ entry databases.
type MultibitTable struct {
	cfg  MultibitConfig
	offs []int // offs[i] = bits consumed before level i; offs[len] = 128

	root  *mbNode
	count int

	nodesPerLevel []int
	leaves        int

	stats       Stats
	levelProbes []int64
}

// NewMultibit returns an empty multibit trie; it panics on an invalid
// stride schedule (use MultibitConfig.Validate to check first).
func NewMultibit(cfg MultibitConfig) *MultibitTable {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	offs := make([]int, len(cfg.Strides)+1)
	for i, s := range cfg.Strides {
		offs[i+1] = offs[i] + s
	}
	t := &MultibitTable{
		cfg:           cfg,
		offs:          offs,
		nodesPerLevel: make([]int, len(cfg.Strides)),
		levelProbes:   make([]int64, len(cfg.Strides)+1),
	}
	t.root = t.newNode(0)
	return t
}

// Kind implements Table.
func (t *MultibitTable) Kind() Kind { return Multibit }

// Config returns the stride schedule.
func (t *MultibitTable) Config() MultibitConfig { return t.cfg }

func (t *MultibitTable) newNode(level int) *mbNode {
	t.nodesPerLevel[level]++
	return &mbNode{level: level, children: make(map[uint32]mbChild)}
}

// childKey extracts the stride bits a node at the given level indexes
// its child array with.
func (t *MultibitTable) childKey(addr bits.Word128, level int) uint32 {
	stride := t.cfg.Strides[level]
	shifted := addr.Shr(uint(128 - t.offs[level] - stride))
	return uint32(shifted.Lo) & (1<<uint(stride) - 1)
}

// endsAt reports whether a prefix of length ln terminates inside the
// span of a node at the given level. The root owns lengths 0..offs[1];
// level i owns (offs[i], offs[i+1]].
func (t *MultibitTable) endsAt(ln, level int) bool { return ln <= t.offs[level+1] }

// Insert adds or replaces the route for r.Prefix.
func (t *MultibitTable) Insert(r Route) error {
	r.Prefix = bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
	if t.insertAt(t.root, r) {
		t.count++
	}
	return nil
}

func (t *MultibitTable) insertAt(n *mbNode, r Route) (added bool) {
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
	c, ok := n.children[key]
	switch {
	case !ok:
		rc := r
		n.children[key] = mbChild{leaf: &rc}
		t.leaves++
		n.count++
		return true
	case c.leaf != nil:
		if c.leaf.Prefix == r.Prefix {
			*c.leaf = r
			return false
		}
		// Two routes share the slot: grow an internal node and push both
		// down. They re-diverge (into leaves) at their first differing
		// stride, so chains only exist where prefixes genuinely overlap.
		child := t.newNode(n.level + 1)
		old := *c.leaf
		t.leaves--
		t.insertAt(child, old)
		added = t.insertAt(child, r)
		n.children[key] = mbChild{node: child}
		if added {
			n.count++
		}
		return added
	default:
		added = t.insertAt(c.node, r)
		if added {
			n.count++
		}
		return added
	}
}

// InsertAll implements BulkLoader; multibit inserts are already
// node-local, so the bulk path is the plain loop.
func (t *MultibitTable) InsertAll(rs []Route) error {
	for _, r := range rs {
		if err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the route for p, re-compressing the path: subtrees
// left holding a single route collapse back into a leaf, and empty
// subtrees are pruned.
func (t *MultibitTable) Delete(p bits.Prefix) bool {
	p = bits.MakePrefix(p.Addr, p.Len)
	if !t.deleteAt(t.root, p) {
		return false
	}
	t.count--
	return true
}

func (t *MultibitTable) deleteAt(n *mbNode, p bits.Prefix) bool {
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
	c, ok := n.children[key]
	if !ok {
		return false
	}
	if c.leaf != nil {
		if c.leaf.Prefix != p {
			return false
		}
		delete(n.children, key)
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
		// Bottom-up recursion has already emptied the subtree.
		t.nodesPerLevel[c.node.level]--
		delete(n.children, key)
	case 1:
		r := t.loneRoute(c.node)
		t.releaseSubtree(c.node)
		rc := r
		n.children[key] = mbChild{leaf: &rc}
		t.leaves++
	}
	return true
}

// loneRoute returns the single route left in a count-1 subtree.
func (t *MultibitTable) loneRoute(n *mbNode) Route {
	for {
		if len(n.routes) == 1 {
			return n.routes[0]
		}
		for _, c := range n.children { // count==1: exactly one child exists
			if c.leaf != nil {
				return *c.leaf
			}
			n = c.node
			break
		}
	}
}

// releaseSubtree returns a collapsed subtree's nodes and leaves to the
// accounting counters.
func (t *MultibitTable) releaseSubtree(n *mbNode) {
	t.nodesPerLevel[n.level]--
	for _, c := range n.children {
		if c.leaf != nil {
			t.leaves--
			continue
		}
		t.releaseSubtree(c.node)
	}
}

// Lookup walks one node per level, remembering the longest route seen;
// a node visit or a leaf probe is one accounted probe — the single
// expanded-slot SRAM access of the hardware organisation.
func (t *MultibitTable) Lookup(addr bits.Word128) (Route, bool) {
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
		c, ok := n.children[t.childKey(addr, n.level)]
		if !ok {
			break
		}
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
func (t *MultibitTable) Len() int { return t.count }

// Routes returns the installed routes in deterministic order.
func (t *MultibitTable) Routes() []Route {
	out := make([]Route, 0, t.count)
	var walk func(n *mbNode)
	walk = func(n *mbNode) {
		out = append(out, n.routes...)
		for _, c := range n.children {
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
func (t *MultibitTable) Stats() Stats { return t.stats }

// ResetStats implements Table.
func (t *MultibitTable) ResetStats() {
	t.stats = Stats{}
	for i := range t.levelProbes {
		t.levelProbes[i] = 0
	}
}

// LevelProbes returns the per-level probe histogram accumulated since
// the last ResetStats; index i counts visits to level-i nodes, with
// path-compressed leaf probes attributed to the level they hang off.
func (t *MultibitTable) LevelProbes() []int64 {
	return append([]int64(nil), t.levelProbes...)
}

// Depth returns the deepest allocated level plus leaves, a compression
// diagnostic: without path compression a lone /128 costs len(Strides)
// levels, with it the route hangs as a leaf near the top.
func (t *MultibitTable) Depth() int {
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

// MemDims implements MemSizer: the hardware footprint of the trie is
// one 2^stride slot array per allocated node plus the path-compressed
// leaf records.
func (t *MultibitTable) MemDims() MemDims {
	dims := MemDims{Entries: t.count, TrieLeaves: t.leaves}
	for lvl, n := range t.nodesPerLevel {
		dims.TrieNodes += n
		dims.TrieSlots += n << uint(t.cfg.Strides[lvl])
	}
	return dims
}

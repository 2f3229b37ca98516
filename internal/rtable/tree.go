package rtable

import (
	"slices"

	"taco/internal/bits"
)

// TreeNode is one node of the balanced search tree in the flattened
// array layout the TACO routing-table unit exposes to the processor:
// a disjoint address range, child indices, and the owner index — the
// position of the range's longest covering route in the table's route
// array (RouteAt), the route reference treeNodeBits prices. Index -1
// means "no child".
type TreeNode struct {
	First, Last bits.Word128
	Left, Right int
	Owner       int
}

// BalancedTreeTable implements the paper's second case: a balanced tree
// with logarithmic search complexity and "much more complex" insertion
// and deletion.
//
// A longest-prefix match does not map directly onto a binary search, so
// the table stores the *disjoint address ranges* induced by the prefix
// set (binary search on ranges, Lampson/Srinivasan/Varghese 1998): each
// range is owned by the longest covering prefix, ranges partition the
// matched address space, and a lookup is a pure root-to-leaf walk. The
// price is paid on update — inserting or deleting one prefix re-splits
// the affected ranges, which is why routing-table updates are expensive
// in this organisation (the paper notes updates are rare: once the
// topology stabilises RIPng updates arrive on the order of minutes).
//
// The primary state is the route set as one canonical
// (address, length)-sorted array; rebuild derives the node array from
// it in one linear pass. A point update is a binary search, a splice
// and a rebuild: linear, with nothing sorted or hashed.
type BalancedTreeTable struct {
	routes []Route
	// borrowed marks routes as the caller's batch, kept by InsertAll:
	// read-only until own gives the table its own copy.
	borrowed bool
	nodes    []TreeNode
	root     int
	stats    Stats
	// gen counts rebuilds, letting the routing-table unit cache a
	// lowered copy of the node array and invalidate it on table updates.
	gen uint64
}

// NewBalancedTree returns an empty balanced-tree table.
func NewBalancedTree() *BalancedTreeTable { return &BalancedTreeTable{root: -1} }

// Kind implements Table.
func (t *BalancedTreeTable) Kind() Kind { return BalancedTree }

// find locates canonical prefix p in the sorted route array.
func (t *BalancedTreeTable) find(p bits.Prefix) (int, bool) {
	return slices.BinarySearchFunc(t.routes, p, func(r Route, p bits.Prefix) int { return r.Prefix.Cmp(p) })
}

// own clones a borrowed route array before an update writes it, with
// room for the route an Insert may splice in.
func (t *BalancedTreeTable) own() {
	if t.borrowed {
		t.routes = append(make([]Route, 0, len(t.routes)+1), t.routes...)
		t.borrowed = false
	}
}

// Insert adds or replaces the route for r.Prefix and rebuilds the range
// tree (the complex update of the paper's discussion).
func (t *BalancedTreeTable) Insert(r Route) error {
	r.Prefix = bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
	t.own()
	if i, found := t.find(r.Prefix); found {
		t.routes[i] = r
	} else {
		t.routes = slices.Insert(t.routes, i, r)
	}
	t.rebuild()
	return nil
}

// InsertAll adds or replaces a batch of routes with a single rebuild —
// the bulk-load path for large tables (the per-insert rebuild is the
// "complex update" the paper discusses; amortising it is how a real
// control plane would apply a full RIPng table transfer).
//
// An empty table may keep rs: a batch already in SortedRoutes order is
// the table's route array as it stands, so the table reads it in place
// until its first Insert or Delete, which clones it. The caller must
// not write rs while the table holds it; the table never writes it.
// Any other batch is only read.
func (t *BalancedTreeTable) InsertAll(rs []Route) error {
	t.borrowed = false
	switch {
	case len(t.routes) > 0: // the batch, coming later, replaces
		t.routes = SortRoutesInPlace(slices.Concat(t.routes, rs), nil)
	case routesSorted(rs):
		t.routes, t.borrowed = rs, true
	default:
		t.routes = SortedRoutes(rs)
	}
	t.rebuild()
	return nil
}

// Delete removes the route for p and rebuilds the range tree.
func (t *BalancedTreeTable) Delete(p bits.Prefix) bool {
	i, found := t.find(bits.MakePrefix(p.Addr, p.Len))
	if !found {
		return false
	}
	t.own()
	t.routes = slices.Delete(t.routes, i, i+1)
	t.rebuild()
	return true
}

// rebuild derives the node array: a perfectly balanced BST over the
// disjoint ranges in preorder — the middle range at the root, then the
// lower half's subtree, then the upper half's. One range sweep counts
// the ranges; a second hands them over in address order, which is the
// tree's in-order, and each is written straight into its preorder slot.
func (t *BalancedTreeTable) rebuild() {
	t.gen++
	prefix := func(i int) bits.Prefix { return t.routes[i].Prefix }
	n := bits.DisjointRanges(len(t.routes), prefix, nil)
	t.nodes = make([]TreeNode, n)
	// A subtree is the in-order ranges [lo,hi) with its root at preorder
	// slot at; its lower half's subtree follows the root there. pending
	// holds, innermost last, the subtrees whose root the sweep has yet
	// to reach; descend pushes a subtree's left spine and returns its
	// root's slot, -1 when it is empty.
	type subtree struct{ lo, hi, at int }
	pending := make([]subtree, 0, 64) // deeper than any tree of < 2^63 nodes
	descend := func(lo, hi, at int) int {
		root := -1
		if lo < hi {
			root = at
		}
		for ; lo < hi; hi, at = lo+(hi-lo)/2, at+1 {
			pending = append(pending, subtree{lo, hi, at})
		}
		return root
	}
	t.root = descend(0, n, 0)
	bits.DisjointRanges(len(t.routes), prefix, func(r bits.Range, owner int) {
		s := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		mid, left := s.lo+(s.hi-s.lo)/2, -1
		if s.lo < mid {
			left = s.at + 1
		}
		t.nodes[s.at] = TreeNode{First: r.First, Last: r.Last, Left: left,
			Right: descend(mid+1, s.hi, s.at+1+mid-s.lo), Owner: owner}
	})
}

// Lookup walks the tree from the root: left when addr precedes the
// node's range, right when it follows, hit when it falls inside — the
// same walk the TACO tree forwarding program performs node by node.
func (t *BalancedTreeTable) Lookup(addr bits.Word128) (Route, bool) {
	t.stats.Lookups++
	i := t.root
	for i >= 0 {
		t.stats.Probes++
		n := &t.nodes[i]
		switch {
		case addr.Less(n.First):
			i = n.Left
		case n.Last.Less(addr):
			i = n.Right
		default:
			return t.routes[n.Owner], true
		}
	}
	return Route{}, false
}

// Len returns the number of installed prefixes (not tree nodes).
func (t *BalancedTreeTable) Len() int { return len(t.routes) }

// Routes returns the installed routes in deterministic order.
func (t *BalancedTreeTable) Routes() []Route { return slices.Clone(t.routes) }

// Nodes exposes the flattened node array (the hardware view used by the
// TACO routing-table unit) and the root index.
func (t *BalancedTreeTable) Nodes() ([]TreeNode, int) { return t.nodes, t.root }

// RouteAt returns the route a node's Owner index names.
func (t *BalancedTreeTable) RouteAt(owner int) Route { return t.routes[owner] }

// Root returns the root node index (-1 when empty).
func (t *BalancedTreeTable) Root() int { return t.root }

// Gen returns the rebuild generation: any mutation changes it, so a
// cached lowering of the node array keyed on Gen stays coherent across
// control-plane updates.
func (t *BalancedTreeTable) Gen() uint64 { return t.gen }

// Depth returns the tree height (0 for an empty tree).
func (t *BalancedTreeTable) Depth() int { return t.depth(t.root) }

func (t *BalancedTreeTable) depth(i int) int {
	if i < 0 {
		return 0
	}
	l, r := t.depth(t.nodes[i].Left), t.depth(t.nodes[i].Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Stats implements Table.
func (t *BalancedTreeTable) Stats() Stats { return t.stats }

// ResetStats implements Table.
func (t *BalancedTreeTable) ResetStats() { t.stats = Stats{} }

// MemDims implements MemSizer: one record per route plus one range node
// per disjoint interval (up to 2n-1 for n prefixes).
func (t *BalancedTreeTable) MemDims() MemDims {
	return MemDims{Entries: len(t.routes), Regions: []Region{
		{Name: "range nodes", Records: len(t.nodes), Bits: treeNodeBits},
	}}
}

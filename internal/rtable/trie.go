package rtable

import (
	mathbits "math/bits"

	"taco/internal/bits"
)

// TrieTable is a binary (one bit per level) trie — the classic software
// longest-prefix-match structure. It is not part of the paper's Table 1;
// the extension ablations use it as a software baseline between the
// sequential scan and the balanced range tree: O(W) search with W ≤ 128,
// but cheap incremental updates.
//
// Nothing here is a pointer. Nodes live in one slab named by int32
// index — the 32-bit-pointer node binaryNodeBits prices — and routes in
// a second; freed slots of either wait on a free list.
type TrieTable struct {
	nodes      []trieNode // nodes[0] is the root, never a child
	routes     []Route    // routes[0] is unused, so route 0 means none
	freeNodes  []int32
	freeRoutes []int32
	count      int
	stats      Stats
}

type trieNode struct {
	child [2]int32 // 0 = no child
	route int32    // index into routes; 0 = none
}

// NewTrie returns an empty trie table.
func NewTrie() *TrieTable {
	return &TrieTable{nodes: make([]trieNode, 1), routes: make([]Route, 1)}
}

// Kind implements Table.
func (t *TrieTable) Kind() Kind { return Trie }

// take stores v in a slot of slab, from free first, and returns its
// index.
func take[T any](slab *[]T, free *[]int32, v T) int32 {
	if n := len(*free); n > 0 {
		i := (*free)[n-1]
		*free = (*free)[:n-1]
		(*slab)[i] = v
		return i
	}
	*slab = append(*slab, v)
	return int32(len(*slab) - 1)
}

// Insert adds or replaces the route for r.Prefix.
func (t *TrieTable) Insert(r Route) error {
	r.Prefix = bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
	var n int32
	for i := 0; i < r.Prefix.Len; i++ {
		b := r.Prefix.Addr.Bit(i)
		if t.nodes[n].child[b] == 0 {
			c := take(&t.nodes, &t.freeNodes, trieNode{}) // may grow the slab: index again below
			t.nodes[n].child[b] = c
		}
		n = t.nodes[n].child[b]
	}
	if ri := t.nodes[n].route; ri != 0 {
		t.routes[ri] = r
		return nil
	}
	t.nodes[n].route = take(&t.routes, &t.freeRoutes, r)
	t.count++
	return nil
}

// InsertAll implements BulkLoader. An empty trie is built in one walk
// over rs in SortedRoutes order (bulkLoad); one that holds routes takes
// the batch one by one.
func (t *TrieTable) InsertAll(rs []Route) error {
	if t.count == 0 {
		if !routesSorted(rs) {
			rs = SortedRoutes(rs)
		}
		t.bulkLoad(rs)
		return nil
	}
	for _, r := range rs {
		if err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// bulkLoad replaces the empty trie with the one the insert loop would
// reach from rs, which must be in SortedRoutes order: the same nodes,
// numbered in preorder. In that order the deepest existing node on a
// prefix's path is where it leaves the previous prefix's path, at depth
// min(lcp, previous length, own length), and every node below it is
// new. A first pass counts the nodes, so each slab is allocated once,
// with a third's headroom for later inserts; the second fills them.
// (A churn of 0.4 ops per route grows the node count by 26 %;
// TestTrieBulkHeadroom holds it.)
func (t *TrieTable) bulkLoad(rs []Route) {
	nNodes := 1
	for i := range rs {
		nNodes += rs[i].Prefix.Len - trieShared(rs, i)
	}
	nRoutes := 1 + len(rs)
	*t = TrieTable{
		nodes:  make([]trieNode, nNodes, nNodes+nNodes/3),
		routes: make([]Route, nRoutes, nRoutes+nRoutes/3),
		count:  len(rs),
		stats:  t.stats,
	}
	copy(t.routes[1:], rs)
	var path [129]int32 // path[d]: the previous prefix's node at depth d
	next := int32(1)
	for i := range rs {
		p := rs[i].Prefix
		for d := trieShared(rs, i); d < p.Len; d++ {
			t.nodes[path[d]].child[p.Addr.Bit(d)] = next
			path[d+1] = next
			next++
		}
		t.nodes[path[p.Len]].route = int32(i + 1)
	}
}

// trieShared is the depth to which rs[i]'s path runs along rs[i-1]'s.
func trieShared(rs []Route, i int) int {
	if i == 0 {
		return 0
	}
	p, q := rs[i-1].Prefix, rs[i].Prefix
	x := p.Addr.Xor(q.Addr)
	lcp := mathbits.LeadingZeros64(x.Hi)
	if x.Hi == 0 {
		lcp += mathbits.LeadingZeros64(x.Lo)
	}
	return min(lcp, p.Len, q.Len)
}

// Delete removes the route for p, pruning now-empty branches.
func (t *TrieTable) Delete(p bits.Prefix) bool {
	p = bits.MakePrefix(p.Addr, p.Len)
	// keep is the deepest node above p's that must stay (the root, or
	// one with a route or a second child): everything below it on the
	// path goes if p's node ends up empty.
	var n, keep int32
	keepDepth := 0
	for i := 0; i < p.Len; i++ {
		nd := &t.nodes[n]
		if i == 0 || nd.route != 0 || nd.child[0] != 0 && nd.child[1] != 0 {
			keep, keepDepth = n, i
		}
		n = nd.child[p.Addr.Bit(i)]
		if n == 0 {
			return false
		}
	}
	nd := &t.nodes[n]
	if nd.route == 0 {
		return false
	}
	t.freeRoutes = append(t.freeRoutes, nd.route)
	nd.route = 0
	t.count--
	if n == 0 || nd.child[0] != 0 || nd.child[1] != 0 {
		return true
	}
	// p's node is now an empty leaf: free the chain below keep.
	b := p.Addr.Bit(keepDepth)
	c := t.nodes[keep].child[b]
	t.nodes[keep].child[b] = 0
	for i := keepDepth + 1; c != 0; i++ {
		t.freeNodes = append(t.freeNodes, c)
		if i == p.Len {
			break
		}
		c = t.nodes[c].child[p.Addr.Bit(i)]
	}
	return true
}

// Lookup walks addr's bits from the root, remembering the deepest node
// holding a route.
func (t *TrieTable) Lookup(addr bits.Word128) (Route, bool) {
	t.stats.Lookups++
	var best, n int32
	for i := 0; ; i++ {
		t.stats.Probes++
		nd := &t.nodes[n]
		if nd.route != 0 {
			best = nd.route
		}
		if i == 128 {
			break
		}
		if n = nd.child[addr.Bit(i)]; n == 0 {
			break
		}
	}
	if best == 0 {
		return Route{}, false
	}
	return t.routes[best], true
}

// Len returns the number of installed prefixes.
func (t *TrieTable) Len() int { return t.count }

// Routes returns the installed routes in deterministic order. A freed
// node holds no route, so one pass over the node slab finds them all.
func (t *TrieTable) Routes() []Route {
	out := make([]Route, 0, t.count)
	for _, nd := range t.nodes {
		if nd.route != 0 {
			out = append(out, t.routes[nd.route])
		}
	}
	sortRoutes(out)
	return out
}

// Stats implements Table.
func (t *TrieTable) Stats() Stats { return t.stats }

// ResetStats implements Table.
func (t *TrieTable) ResetStats() { t.stats = Stats{} }

// MemDims implements MemSizer: one two-pointer node per allocated trie
// position (the binary trie's memory weakness at scale).
func (t *TrieTable) MemDims() MemDims {
	nodes := len(t.nodes) - len(t.freeNodes)
	return MemDims{Entries: t.count, Regions: []Region{
		{Name: "nodes", Records: nodes, Bits: binaryNodeBits},
		{Name: "results", Records: t.count, Bits: resultBits},
	}}
}

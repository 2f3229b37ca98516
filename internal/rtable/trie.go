package rtable

import (
	"taco/internal/bits"
)

// TrieTable is a binary (one bit per level) trie — the classic software
// longest-prefix-match structure. It is not part of the paper's Table 1;
// the extension ablations use it as a software baseline between the
// sequential scan and the balanced range tree: O(W) search with W ≤ 128,
// but cheap incremental updates.
type TrieTable struct {
	root  *trieNode
	count int
	stats Stats
}

type trieNode struct {
	child [2]*trieNode
	route *Route
}

// NewTrie returns an empty trie table.
func NewTrie() *TrieTable { return &TrieTable{root: &trieNode{}} }

// Kind implements Table.
func (t *TrieTable) Kind() Kind { return Trie }

// Insert adds or replaces the route for r.Prefix.
func (t *TrieTable) Insert(r Route) error {
	r.Prefix = bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
	n := t.root
	for i := 0; i < r.Prefix.Len; i++ {
		b := r.Prefix.Addr.Bit(i)
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	if n.route == nil {
		t.count++
	}
	rc := r
	n.route = &rc
	return nil
}

// Delete removes the route for p, pruning now-empty branches.
func (t *TrieTable) Delete(p bits.Prefix) bool {
	p = bits.MakePrefix(p.Addr, p.Len)
	// Record the path so empty nodes can be pruned bottom-up.
	path := make([]*trieNode, 0, p.Len+1)
	n := t.root
	path = append(path, n)
	for i := 0; i < p.Len; i++ {
		n = n.child[p.Addr.Bit(i)]
		if n == nil {
			return false
		}
		path = append(path, n)
	}
	if n.route == nil {
		return false
	}
	n.route = nil
	t.count--
	for i := len(path) - 1; i > 0; i-- {
		nd := path[i]
		if nd.route != nil || nd.child[0] != nil || nd.child[1] != nil {
			break
		}
		path[i-1].child[p.Addr.Bit(i-1)] = nil
	}
	return true
}

// Lookup walks addr's bits from the root, remembering the deepest node
// holding a route.
func (t *TrieTable) Lookup(addr bits.Word128) (Route, bool) {
	t.stats.Lookups++
	var best *Route
	n := t.root
	for i := 0; n != nil; i++ {
		t.stats.Probes++
		if n.route != nil {
			best = n.route
		}
		if i == 128 {
			break
		}
		n = n.child[addr.Bit(i)]
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// Len returns the number of installed prefixes.
func (t *TrieTable) Len() int { return t.count }

// Routes returns the installed routes in deterministic order.
func (t *TrieTable) Routes() []Route {
	var out []Route
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		if n == nil {
			return
		}
		if n.route != nil {
			out = append(out, *n.route)
		}
		walk(n.child[0])
		walk(n.child[1])
	}
	walk(t.root)
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
	nodes := 0
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		if n == nil {
			return
		}
		nodes++
		walk(n.child[0])
		walk(n.child[1])
	}
	walk(t.root)
	return MemDims{Entries: t.count, Regions: []Region{
		{Name: "nodes", Records: nodes, Bits: binaryNodeBits},
		{Name: "results", Records: t.count, Bits: resultBits},
	}}
}

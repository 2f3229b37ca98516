package rtable

import (
	mbits "math/bits"
	"slices"

	"taco/internal/bits"
)

// strideCore is the stride-trie walk and its storage, shared by
// MultibitTable and CompressedTable: the two are one logical trie and
// differ only in how MemDims prices a node (a fully expanded 2^stride
// slot array against an occupancy bitmap plus the occupied records).
//
// Nothing here is a pointer. Nodes live in one slab, named by int32
// index (0 is the root); a node's child refs and its span routes are
// runs inside shared slabs; a path-compressed leaf is a run of one in
// the route slab. A ref >= 0 names a node, a ref < 0 the leaf at
// routes.data[^ref]; the ref of slot key sits at rank(key) of the
// node's occupancy bitmap, so a kid run is in slot order.
type strideCore struct {
	strides []int
	offs    []int   // offs[i] = bits consumed before level i; offs[len] = 128
	words   []int32 // bitmap words of a level-i node

	nodes     []strideNode
	freeNodes []int32
	kids      runSlab[int32]
	routes    runSlab[Route]
	bitmaps   runSlab[uint64]

	count         int
	nodesPerLevel []int
	kidSlots      int // occupied child records across all nodes
	leaves        int

	stats       Stats
	levelProbes []int64
}

// strideNode is one trie level: routes whose prefix ends inside the
// node's bit span (longest first, so the first hit wins in-node), plus
// children for routes that extend deeper. A lone deeper route hangs off
// its slot as a leaf instead of a chain of one-child nodes.
type strideNode struct {
	level       int32
	count       int32 // routes stored in this subtree
	bitmap      int32 // run in bitmaps, bitmapWords(level) long
	kids, nKids int32 // run in kids
	kidCap      int32
	span, nSpan int32 // run in routes
	spanCap     int32
}

// rankedWords is the bitmap size from which a node keeps, after its
// bitmap, the count of bits set before each word: child rank is then
// one popcount instead of up to 1024 at a /16 root.
const rankedWords = 8

// runSlab hands out contiguous runs of one backing slice. The bulk
// build appends exact-fit runs; a run that has to grow moves into a
// power-of-two run, and released runs wait on per-class free lists.
type runSlab[T any] struct {
	data []T
	free [18][]int32 // free[c]: offsets of released runs of >= 1<<c elements
}

// alloc returns a run of at least n >= 1 elements and its capacity. The
// contents of a recycled run are stale.
func (s *runSlab[T]) alloc(n int32) (off, capacity int32) {
	c := mbits.Len32(uint32(n - 1))
	if f := s.free[c]; len(f) > 0 {
		s.free[c] = f[:len(f)-1]
		return f[len(f)-1], 1 << c
	}
	off = int32(len(s.data))
	s.data = slices.Grow(s.data, 1<<c)[:int(off)+1<<c]
	return off, 1 << c
}

func (s *runSlab[T]) release(off, capacity int32) {
	if capacity > 0 {
		c := mbits.Len32(uint32(capacity)) - 1
		s.free[c] = append(s.free[c], off)
	}
}

// insert puts v at index i of the n-element run (off, capacity), moving
// the run when it is full, and returns where the run now is.
func (s *runSlab[T]) insert(off, n, capacity, i int32, v T) (int32, int32) {
	if n == capacity {
		to, toCap := s.alloc(n + 1)
		copy(s.data[to:to+n], s.data[off:off+n])
		s.release(off, capacity)
		off, capacity = to, toCap
	}
	run := s.data[off : off+n+1]
	copy(run[i+1:], run[i:])
	run[i] = v
	return off, capacity
}

// setup makes the core an empty trie over a validated schedule.
func (c *strideCore) setup(strides []int) {
	c.strides = strides
	c.offs = make([]int, len(strides)+1)
	c.words = make([]int32, len(strides))
	for i, s := range strides {
		c.offs[i+1] = c.offs[i] + s
		c.words[i] = max(1, int32(1)<<uint(s)/64)
	}
	c.nodesPerLevel = make([]int, len(strides))
	c.levelProbes = make([]int64, len(strides)+1)
	c.newNode(0)
}

// bitmapWords is the length of a level's bitmap run: the bitmap, then
// its rank directory if it has one.
func (c *strideCore) bitmapWords(level int32) int32 {
	if w := c.words[level]; w < rankedWords {
		return w
	}
	return 2 * c.words[level]
}

// newNode allocates an empty node with a cleared bitmap run.
func (c *strideCore) newNode(level int32) int32 {
	c.nodesPerLevel[level]++
	w := c.bitmapWords(level)
	bm, _ := c.bitmaps.alloc(w)
	clear(c.bitmaps.data[bm : bm+w])
	nd := strideNode{level: level, bitmap: bm}
	if n := len(c.freeNodes); n > 0 {
		ni := c.freeNodes[n-1]
		c.freeNodes = c.freeNodes[:n-1]
		c.nodes[ni] = nd
		return ni
	}
	c.nodes = append(c.nodes, nd)
	return int32(len(c.nodes) - 1)
}

// childKey extracts the stride bits a node at the given level indexes
// its children with.
func (c *strideCore) childKey(addr bits.Word128, level int32) uint32 {
	stride := c.strides[level]
	shifted := addr.Shr(uint(128 - c.offs[level] - stride))
	return uint32(shifted.Lo) & (1<<uint(stride) - 1)
}

// endsAt reports whether a prefix of length ln ends inside the span of
// a level's nodes: 0..offs[1] at the root, (offs[i], offs[i+1]] below.
func (c *strideCore) endsAt(ln int, level int32) bool { return ln <= c.offs[level+1] }

// slot reports whether slot key of node ni is occupied and how many
// occupied slots precede it: the index of key's ref in the kid run.
func (c *strideCore) slot(ni int32, key uint32) (occupied bool, rank int32) {
	n := &c.nodes[ni]
	w, bit := int32(key>>6), uint64(1)<<(key&63)
	bm := c.bitmaps.data[n.bitmap:]
	if words := c.words[n.level]; words >= rankedWords {
		rank = int32(bm[words+w])
	} else {
		for _, x := range bm[:w] {
			rank += int32(mbits.OnesCount64(x))
		}
	}
	return bm[w]&bit != 0, rank + int32(mbits.OnesCount64(bm[w]&(bit-1)))
}

// flipBit sets (d = 1) or clears (d = -1) slot key in node ni's bitmap
// and keeps the rank directory current.
func (c *strideCore) flipBit(ni int32, key uint32, d int) {
	n := &c.nodes[ni]
	bm := c.bitmaps.data[n.bitmap : n.bitmap+c.bitmapWords(n.level)]
	bm[key>>6] ^= 1 << (key & 63)
	for i := c.words[n.level] + int32(key>>6) + 1; i < int32(len(bm)); i++ {
		bm[i] += uint64(d)
	}
}

// setChild installs ref at slot key.
func (c *strideCore) setChild(ni int32, key uint32, ref int32) {
	occupied, i := c.slot(ni, key)
	n := &c.nodes[ni]
	if occupied {
		c.kids.data[n.kids+i] = ref
		return
	}
	n.kids, n.kidCap = c.kids.insert(n.kids, n.nKids, n.kidCap, i, ref)
	n.nKids++
	c.kidSlots++
	c.flipBit(ni, key, 1)
}

// clearChild empties slot key.
func (c *strideCore) clearChild(ni int32, key uint32) {
	_, i := c.slot(ni, key)
	n := &c.nodes[ni]
	run := c.kids.data[n.kids : n.kids+n.nKids]
	copy(run[i:], run[i+1:])
	n.nKids--
	c.kidSlots--
	c.flipBit(ni, key, -1)
}

// newLeaf stores r as a path-compressed leaf and returns its child ref.
func (c *strideCore) newLeaf(r Route) int32 {
	off, _ := c.routes.alloc(1)
	c.routes.data[off] = r
	c.leaves++
	return ^off
}

func (c *strideCore) freeLeaf(ref int32) {
	c.routes.release(^ref, 1)
	c.leaves--
}

// spanRoutes returns node ni's span routes, longest first.
func (c *strideCore) spanRoutes(ni int32) []Route {
	n := &c.nodes[ni]
	return c.routes.data[n.span : n.span+n.nSpan]
}

// findSpan locates p among node ni's span routes (cmpPriority order).
func (c *strideCore) findSpan(ni int32, p bits.Prefix) (int, bool) {
	return slices.BinarySearchFunc(c.spanRoutes(ni), p, func(r Route, p bits.Prefix) int {
		return cmpPriority(r.Prefix, p)
	})
}

// Insert adds or replaces the route for r.Prefix.
func (c *strideCore) Insert(r Route) error {
	r.Prefix = bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
	if c.insertAt(0, r) {
		c.count++
	}
	return nil
}

// insertAt holds no node pointer across a call that may grow a slab.
func (c *strideCore) insertAt(ni int32, r Route) (added bool) {
	level := c.nodes[ni].level
	if c.endsAt(r.Prefix.Len, level) {
		i, found := c.findSpan(ni, r.Prefix)
		n := &c.nodes[ni]
		if found {
			c.routes.data[n.span+int32(i)] = r
			return false
		}
		n.span, n.spanCap = c.routes.insert(n.span, n.nSpan, n.spanCap, int32(i), r)
		n.nSpan++
		n.count++
		return true
	}
	key := c.childKey(r.Prefix.Addr, level)
	occupied, i := c.slot(ni, key)
	if !occupied {
		c.setChild(ni, key, c.newLeaf(r))
		c.nodes[ni].count++
		return true
	}
	ref := c.kids.data[c.nodes[ni].kids+i]
	if ref < 0 {
		old := &c.routes.data[^ref]
		if old.Prefix == r.Prefix {
			*old = r
			return false
		}
		// Two routes share the slot: grow an internal node and push both
		// down. They re-diverge (into leaves) at their first differing
		// stride, so chains only exist where prefixes genuinely overlap.
		oldRoute := *old
		c.freeLeaf(ref)
		ref = c.newNode(level + 1)
		c.setChild(ni, key, ref)
		c.insertAt(ref, oldRoute)
	}
	added = c.insertAt(ref, r)
	if added {
		c.nodes[ni].count++
	}
	return added
}

// InsertAll implements BulkLoader: an empty trie is filled top-down
// (bulkLoad), one that holds routes takes the batch one by one.
func (c *strideCore) InsertAll(rs []Route) error {
	if c.count == 0 && len(rs) > 0 {
		if !routesSorted(rs) {
			rs = SortedRoutes(rs)
		}
		c.bulkLoad(rs)
		return nil
	}
	for _, r := range rs {
		c.Insert(r)
	}
	return nil
}

// bulkLoad builds the trie the insert loop would reach — canonical: a
// slot holds a leaf when exactly one route passes through it and a node
// when more do — from rs in SortedRoutes order. The routes of a subtree
// are then one contiguous sub-slice, and inside it child keys never
// decrease. A first walk sizes every slab exactly; the second fills them.
func (c *strideCore) bulkLoad(rs []Route) {
	b := strideBulk{c: c, rs: rs, nodes: make([]int, len(c.strides))}
	b.size(0, len(rs), 0)
	nNodes, nWords := 0, 0
	for lvl, n := range b.nodes {
		nNodes += n
		nWords += n * int(c.bitmapWords(int32(lvl)))
	}
	*c = strideCore{
		strides: c.strides, offs: c.offs, words: c.words,
		nodes:         make([]strideNode, 0, nNodes),
		kids:          runSlab[int32]{data: make([]int32, 0, b.refs)},
		routes:        runSlab[Route]{data: make([]Route, 0, len(rs))},
		bitmaps:       runSlab[uint64]{data: make([]uint64, 0, nWords)},
		count:         len(rs),
		nodesPerLevel: make([]int, len(c.strides)), // newNode counts them again
		stats:         c.stats, levelProbes: c.levelProbes,
	}
	c.newNode(0)
	c.nodes[0].count = int32(len(rs))
	b.fill(0, 0, len(rs))
}

// strideBulk is the state of one bulkLoad: what size counted, and the
// stacks on which fill collects a node's child refs and span routes
// (as indices into rs) while its subtrees are written.
type strideBulk struct {
	c          *strideCore
	rs         []Route
	nodes      []int // per level
	refs       int   // child refs over all nodes
	kids, span []int32
}

// groupEnd returns rs[i]'s child key at the given level and the end of
// the group sharing it. Routes ending in the node's span sort before
// the group of their key, never inside it.
func (b *strideBulk) groupEnd(i, hi int, level int32) (uint32, int) {
	key := b.c.childKey(b.rs[i].Prefix.Addr, level)
	j := i + 1
	for j < hi && b.c.childKey(b.rs[j].Prefix.Addr, level) == key {
		j++
	}
	return key, j
}

// size counts the nodes and child refs of the subtree over rs[lo:hi].
func (b *strideBulk) size(lo, hi int, level int32) {
	b.nodes[level]++
	for i := lo; i < hi; {
		if b.c.endsAt(b.rs[i].Prefix.Len, level) {
			i++
			continue
		}
		_, j := b.groupEnd(i, hi, level)
		b.refs++
		if j-i > 1 {
			b.size(i, j, level+1)
		}
		i = j
	}
}

// fill writes node ni, already allocated, from rs[lo:hi].
func (b *strideBulk) fill(ni int32, lo, hi int) {
	c := b.c
	level := c.nodes[ni].level
	kidMark, spanMark := len(b.kids), len(b.span)
	for i := lo; i < hi; {
		if c.endsAt(b.rs[i].Prefix.Len, level) {
			b.span = append(b.span, int32(i))
			i++
			continue
		}
		key, j := b.groupEnd(i, hi, level)
		c.bitmaps.data[c.nodes[ni].bitmap+int32(key>>6)] |= 1 << (key & 63)
		if j-i == 1 {
			b.kids = append(b.kids, c.newLeaf(b.rs[i]))
		} else {
			child := c.newNode(level + 1)
			c.nodes[child].count = int32(j - i)
			b.fill(child, i, j)
			b.kids = append(b.kids, child)
		}
		i = j
	}

	n := &c.nodes[ni]
	n.kids, n.nKids = int32(len(c.kids.data)), int32(len(b.kids)-kidMark)
	n.kidCap = n.nKids
	c.kids.data = append(c.kids.data, b.kids[kidMark:]...)
	c.kidSlots += int(n.nKids)
	b.kids = b.kids[:kidMark]

	n.span, n.nSpan = int32(len(c.routes.data)), int32(len(b.span)-spanMark)
	n.spanCap = n.nSpan
	for _, i := range b.span[spanMark:] {
		c.routes.data = append(c.routes.data, b.rs[i])
	}
	b.span = b.span[:spanMark]
	if n.nSpan > 1 {
		sortPriority(c.spanRoutes(ni))
	}

	if words := c.words[level]; words >= rankedWords {
		bm := c.bitmaps.data[n.bitmap : n.bitmap+2*words]
		for w := int32(1); w < words; w++ {
			bm[words+w] = bm[words+w-1] + uint64(mbits.OnesCount64(bm[w-1]))
		}
	}
}

// Delete removes the route for p, re-compressing the path: a subtree
// left holding a single route collapses back into a leaf.
func (c *strideCore) Delete(p bits.Prefix) bool {
	p = bits.MakePrefix(p.Addr, p.Len)
	if !c.deleteAt(0, p) {
		return false
	}
	c.count--
	return true
}

func (c *strideCore) deleteAt(ni int32, p bits.Prefix) bool {
	level := c.nodes[ni].level
	if c.endsAt(p.Len, level) {
		i, found := c.findSpan(ni, p)
		if !found {
			return false
		}
		run := c.spanRoutes(ni)
		copy(run[i:], run[i+1:])
		c.nodes[ni].nSpan--
		c.nodes[ni].count--
		return true
	}
	key := c.childKey(p.Addr, level)
	occupied, i := c.slot(ni, key)
	if !occupied {
		return false
	}
	ref := c.kids.data[c.nodes[ni].kids+i]
	if ref < 0 {
		if c.routes.data[^ref].Prefix != p {
			return false
		}
		c.freeLeaf(ref)
		c.clearChild(ni, key)
		c.nodes[ni].count--
		return true
	}
	if !c.deleteAt(ref, p) {
		return false
	}
	c.nodes[ni].count--
	if c.nodes[ref].count == 1 { // a node holds at least two routes
		r := c.loneRoute(ref)
		c.releaseSubtree(ref)
		c.setChild(ni, key, c.newLeaf(r))
	}
	return true
}

// loneRoute returns the single route left in a count-1 subtree.
func (c *strideCore) loneRoute(ni int32) Route {
	for {
		n := &c.nodes[ni]
		if n.nSpan == 1 {
			return c.routes.data[n.span]
		}
		ref := c.kids.data[n.kids] // count == 1: exactly one child exists
		if ref < 0 {
			return c.routes.data[^ref]
		}
		ni = ref
	}
}

// releaseSubtree returns a collapsed subtree to the free lists.
func (c *strideCore) releaseSubtree(ni int32) {
	n := c.nodes[ni]
	for _, ref := range c.kids.data[n.kids : n.kids+n.nKids] {
		if ref < 0 {
			c.freeLeaf(ref)
		} else {
			c.releaseSubtree(ref)
		}
	}
	c.nodesPerLevel[n.level]--
	c.kidSlots -= int(n.nKids)
	c.kids.release(n.kids, n.kidCap)
	c.routes.release(n.span, n.spanCap)
	c.bitmaps.release(n.bitmap, c.bitmapWords(n.level))
	c.nodes[ni] = strideNode{}
	c.freeNodes = append(c.freeNodes, ni)
}

// Lookup walks one node per level, remembering the longest route seen;
// a node visit or a leaf probe is one accounted probe: the one
// expanded-slot access of the multibit organisation, or the bitmap
// word, rank and compact slot that share the compressed one's SRAM line.
func (c *strideCore) Lookup(addr bits.Word128) (Route, bool) {
	c.stats.Lookups++
	var best *Route
	for ni := int32(0); ; {
		n := &c.nodes[ni]
		c.stats.Probes++
		c.levelProbes[n.level]++
		span := c.routes.data[n.span : n.span+n.nSpan]
		for i := range span { // longest first: first hit wins in-node
			if span[i].Prefix.Contains(addr) {
				best = &span[i]
				break
			}
		}
		occupied, i := c.slot(ni, c.childKey(addr, n.level))
		if !occupied {
			break
		}
		ref := c.kids.data[n.kids+i]
		if ref < 0 {
			c.stats.Probes++
			c.levelProbes[n.level+1]++
			if leaf := &c.routes.data[^ref]; leaf.Prefix.Contains(addr) {
				best = leaf
			}
			break
		}
		ni = ref
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// Len returns the number of installed prefixes.
func (c *strideCore) Len() int { return c.count }

// Routes returns the installed routes in deterministic order.
func (c *strideCore) Routes() []Route {
	out := make([]Route, 0, c.count)
	for ni, n := range c.nodes {
		if n.count == 0 {
			continue // released, or the root of an empty trie
		}
		out = append(out, c.spanRoutes(int32(ni))...)
		for _, ref := range c.kids.data[n.kids : n.kids+n.nKids] {
			if ref < 0 {
				out = append(out, c.routes.data[^ref])
			}
		}
	}
	sortRoutes(out)
	return out
}

// Stats implements Table.
func (c *strideCore) Stats() Stats { return c.stats }

// ResetStats implements Table.
func (c *strideCore) ResetStats() {
	c.stats = Stats{}
	clear(c.levelProbes)
}

// LevelProbes returns the per-level probe histogram accumulated since
// the last ResetStats; index i counts visits to level-i nodes, with
// path-compressed leaf probes attributed to the level they hang off.
func (c *strideCore) LevelProbes() []int64 { return slices.Clone(c.levelProbes) }

// Depth returns the deepest allocated level plus leaves: without path
// compression a lone /128 costs len(Strides) levels, with it one leaf.
func (c *strideCore) Depth() int {
	d := 0
	for lvl, n := range c.nodesPerLevel {
		if n > 0 {
			d = lvl + 1
		}
	}
	if c.leaves > 0 {
		d++
	}
	return d
}

// nodeTotals sums the allocated nodes and their 2^stride slots.
func (c *strideCore) nodeTotals() (nodes, slots int) {
	for lvl, n := range c.nodesPerLevel {
		nodes += n
		slots += n << uint(c.strides[lvl])
	}
	return nodes, slots
}

// White-box invariant checker and structural dump for the stride-trie
// core. The dump is what the bulk ≡ insert-loop and order-independence
// tests (bulk_test.go) compare: it names nodes by preorder
// position and slots by key, so two tries with the same logical shape
// dump equal whatever their slab layout.
package rtable

import (
	mbits "math/bits"
	"testing"
)

// StrideKidDump is one occupied slot: a path-compressed leaf route, or
// (Leaf false) the child node that follows in the dump's preorder.
type StrideKidDump struct {
	Key   uint32
	Leaf  bool
	Route Route
}

// StrideNodeDump is one node of the trie.
type StrideNodeDump struct {
	Level int
	Span  []Route // in stored (priority) order
	Kids  []StrideKidDump
}

// DumpStride walks the trie in preorder, checking on the way that the
// storage is coherent: bitmaps, rank directories, run bounds, subtree
// counts and the accounting counters MemDims and Depth are built from.
func (c *strideCore) DumpStride(tb testing.TB) []StrideNodeDump {
	tb.Helper()
	var out []StrideNodeDump
	nodesPerLevel := make([]int, len(c.strides))
	leaves, kidSlots := 0, 0
	var walk func(ni int32, level int32) int32
	walk = func(ni, level int32) int32 {
		n := c.nodes[ni]
		if n.level != level {
			tb.Fatalf("node %d: level %d on a level-%d path", ni, n.level, level)
		}
		if n.nKids > n.kidCap || n.nSpan > n.spanCap {
			tb.Fatalf("node %d: run overflows its capacity: %+v", ni, n)
		}
		nodesPerLevel[level]++
		kidSlots += int(n.nKids)
		d := StrideNodeDump{Level: int(level), Span: append([]Route{}, c.spanRoutes(ni)...)}
		lo := 0
		if level > 0 {
			lo = c.offs[level] + 1
		}
		for i, r := range d.Span {
			if r.Prefix.Len < lo || !c.endsAt(r.Prefix.Len, level) {
				tb.Fatalf("node %d (level %d): span route %v out of span", ni, level, r.Prefix)
			}
			if i > 0 && cmpPriority(d.Span[i-1].Prefix, r.Prefix) >= 0 {
				tb.Fatalf("node %d: span routes out of priority order at %d", ni, i)
			}
		}
		at := len(out)
		out = append(out, d)

		count, seen := n.nSpan, int32(0)
		for w := int32(0); w < c.words[level]; w++ {
			word := c.bitmaps.data[n.bitmap+w]
			if words := c.words[level]; words >= rankedWords {
				if dir := c.bitmaps.data[n.bitmap+words+w]; dir != uint64(seen) {
					tb.Fatalf("node %d: rank directory word %d = %d, %d bits set before it", ni, w, dir, seen)
				}
			}
			for ; word != 0; word &= word - 1 {
				key := uint32(w)<<6 | uint32(mbits.TrailingZeros64(word))
				if key >= 1<<uint(c.strides[level]) {
					tb.Fatalf("node %d: slot %d beyond stride %d", ni, key, c.strides[level])
				}
				if seen >= n.nKids {
					tb.Fatalf("node %d: more bitmap bits than its %d kids", ni, n.nKids)
				}
				if occupied, rank := c.slot(ni, key); !occupied || rank != seen {
					tb.Fatalf("node %d: slot %d occupied %v rank %d, want rank %d", ni, key, occupied, rank, seen)
				}
				ref := c.kids.data[n.kids+seen]
				seen++
				if ref < 0 {
					r := c.routes.data[^ref]
					if c.endsAt(r.Prefix.Len, level) || c.childKey(r.Prefix.Addr, level) != key {
						tb.Fatalf("node %d: leaf %v does not belong in slot %d", ni, r.Prefix, key)
					}
					leaves++
					count++
					out[at].Kids = append(out[at].Kids, StrideKidDump{Key: key, Leaf: true, Route: r})
					continue
				}
				out[at].Kids = append(out[at].Kids, StrideKidDump{Key: key})
				sub := walk(ref, level+1)
				if sub < 2 {
					tb.Fatalf("node %d: child node %d holds %d routes, should be a leaf or gone", ni, ref, sub)
				}
				count += sub
			}
		}
		if seen != n.nKids {
			tb.Fatalf("node %d: %d bitmap bits, %d kids", ni, seen, n.nKids)
		}
		if count != n.count {
			tb.Fatalf("node %d: subtree holds %d routes, count says %d", ni, count, n.count)
		}
		return count
	}
	if total := walk(0, 0); int(total) != c.count {
		tb.Fatalf("trie holds %d routes, Len says %d", total, c.count)
	}
	for lvl, n := range nodesPerLevel {
		if n != c.nodesPerLevel[lvl] {
			tb.Fatalf("level %d: %d nodes, counter says %d", lvl, n, c.nodesPerLevel[lvl])
		}
	}
	if leaves != c.leaves || kidSlots != c.kidSlots {
		tb.Fatalf("%d leaves and %d kid slots, counters say %d and %d", leaves, kidSlots, c.leaves, c.kidSlots)
	}
	if live := len(out) + len(c.freeNodes); live != len(c.nodes) {
		tb.Fatalf("node slab of %d: %d reachable + %d free", len(c.nodes), len(out), len(c.freeNodes))
	}
	return out
}

// SlabLens reports the length of every slab (nodes, child refs, routes,
// bitmap words): what must stop growing once the free lists hold a
// steady-state churn's worth of runs.
func (c *strideCore) SlabLens() [4]int {
	return [4]int{len(c.nodes), len(c.kids.data), len(c.routes.data), len(c.bitmaps.data)}
}

// White-box invariant suite for the tiled-TCAM backend. The checker
// walks the index trie after every mutation batch and asserts the
// structural properties the MashUp-style organisation promises:
// occupancy never exceeds the block budget, tiles partition the
// address space, every installed route lives in exactly its owner tile
// plus the covering copies its span demands, and the accounting
// counters match the structure they summarise.
package rtable

import (
	"math/rand"
	"testing"

	"taco/internal/bits"
)

// checkTileInvariants walks the whole table and fails the test on any
// structural violation. It returns the visited leaf count so callers
// can assert tiling activity (splits happened, merges happened).
func checkTileInvariants(t *testing.T, tbl *TiledTCAMTable) int {
	t.Helper()
	leaves := 0
	internal := 0
	occupied := 0
	var walk func(n *ttNode, prefix bits.Prefix)
	walk = func(n *ttNode, prefix bits.Prefix) {
		if n.depth != prefix.Len {
			t.Fatalf("index node depth %d does not match its path length %d", n.depth, prefix.Len)
		}
		if n.leaf() {
			leaves++
			tile := n.tile
			if tile.prefix != prefix {
				t.Fatalf("tile prefix %v does not match its index path %v", tile.prefix, prefix)
			}
			if len(tile.entries) > tbl.cfg.BlockSize {
				t.Fatalf("tile %v holds %d entries, block budget %d",
					tile.prefix, len(tile.entries), tbl.cfg.BlockSize)
			}
			occupied += len(tile.entries)
			for i, r := range tile.entries {
				// Every entry's span must intersect the tile's span:
				// either the route covers the tile or nests inside it.
				if r.Prefix.Len <= tile.prefix.Len {
					if !r.Prefix.Contains(tile.prefix.Addr) {
						t.Fatalf("tile %v holds non-covering short entry %v", tile.prefix, r.Prefix)
					}
				} else if !tile.prefix.Contains(r.Prefix.Addr) {
					t.Fatalf("tile %v holds out-of-span entry %v", tile.prefix, r.Prefix)
				}
				// Priority order: longest prefix first, addr-ascending
				// within a length — the block's encoder contract.
				if i > 0 {
					prev := tile.entries[i-1]
					if prev.Prefix.Len < r.Prefix.Len ||
						(prev.Prefix.Len == r.Prefix.Len && !prev.Prefix.Addr.Less(r.Prefix.Addr)) {
						t.Fatalf("tile %v entries out of priority order at %d: %v then %v",
							tile.prefix, i, prev.Prefix, r.Prefix)
					}
				}
			}
			return
		}
		internal++
		if n.child[0] == nil || n.child[1] == nil {
			t.Fatalf("internal index node %v missing a child", prefix)
		}
		walk(n.child[0], bits.MakePrefix(prefix.Addr, prefix.Len+1))
		one := bits.Mask(prefix.Len + 1).And(bits.Mask(prefix.Len).Not())
		walk(n.child[1], bits.MakePrefix(prefix.Addr.Or(one), prefix.Len+1))
	}
	walk(tbl.root, bits.MakePrefix(bits.Word128{}, 0))

	if leaves != tbl.tiles {
		t.Fatalf("tile counter %d, walked %d leaves", tbl.tiles, leaves)
	}
	if internal != tbl.indexNodes {
		t.Fatalf("index-node counter %d, walked %d internal nodes", tbl.indexNodes, internal)
	}
	if occupied != tbl.occupied {
		t.Fatalf("occupancy counter %d, walked %d entries", tbl.occupied, occupied)
	}

	// Replication contract: each installed route appears in its unique
	// owner tile and in every deeper tile its span covers — and nowhere
	// else. Count appearances per route across all tiles and compare
	// against the number of leaves inside the route's span.
	routes := tbl.Routes()
	if len(routes) != tbl.count {
		t.Fatalf("Routes() lists %d routes, counter %d", len(routes), tbl.count)
	}
	appearances := make(map[bits.Prefix]int, len(routes))
	var count func(n *ttNode)
	count = func(n *ttNode) {
		if n.leaf() {
			for _, r := range n.tile.entries {
				appearances[r.Prefix]++
			}
			return
		}
		count(n.child[0])
		count(n.child[1])
	}
	count(tbl.root)
	if len(appearances) != len(routes) {
		t.Fatalf("tiles hold %d distinct prefixes, table has %d", len(appearances), len(routes))
	}
	for _, r := range routes {
		owner := tbl.ownerNode(r.Prefix.Addr)
		if !owner.leaf() || !ownerHolds(owner.tile, r.Prefix) {
			t.Fatalf("route %v missing from its owner tile", r.Prefix)
		}
		want := 1
		if r.Prefix.Len <= owner.depth {
			// Short route: present in every leaf of its span.
			want = 0
			var span func(n *ttNode)
			span = func(n *ttNode) {
				if n.leaf() {
					want++
					return
				}
				span(n.child[0])
				span(n.child[1])
			}
			nd := tbl.root
			for !nd.leaf() && nd.depth < r.Prefix.Len {
				nd = nd.child[r.Prefix.Addr.Bit(nd.depth)]
			}
			span(nd)
		}
		if appearances[r.Prefix] != want {
			t.Fatalf("route %v appears in %d tiles, want %d (owner + covering copies)",
				r.Prefix, appearances[r.Prefix], want)
		}
	}
	return leaves
}

func TestTiledTCAMConfigValidate(t *testing.T) {
	if err := (TiledTCAMConfig{BlockSize: MinTiledBlockSize - 1, MergeFill: 0.5}).Validate(); err == nil {
		t.Fatal("block size below the nested-chain minimum must be rejected")
	}
	if err := (TiledTCAMConfig{BlockSize: 256, MergeFill: 1.5}).Validate(); err == nil {
		t.Fatal("merge fill above 1 must be rejected")
	}
	if err := DefaultTiledTCAMConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewTiledTCAM must panic on invalid geometry")
		}
	}()
	NewTiledTCAM(TiledTCAMConfig{BlockSize: 1})
}

// TestTiledTCAMNestedChainFits pins the MinTiledBlockSize rationale:
// the maximal nested chain — every prefix length 0..128 over one
// address — must fit a minimum-size block without splitting forever.
func TestTiledTCAMNestedChainFits(t *testing.T) {
	tbl := NewTiledTCAM(TiledTCAMConfig{BlockSize: MinTiledBlockSize, MergeFill: 0.5})
	addr := bits.Word128{Hi: 0x20010db8dead0000, Lo: 0xbeef}
	for ln := 0; ln <= 128; ln++ {
		if err := tbl.Insert(Route{Prefix: bits.MakePrefix(addr, ln), Iface: ln % 4, Metric: 1}); err != nil {
			t.Fatalf("insert /%d: %v", ln, err)
		}
	}
	if tbl.Len() != 129 {
		t.Fatalf("Len() = %d, want 129", tbl.Len())
	}
	checkTileInvariants(t, tbl)
	r, ok := tbl.Lookup(addr)
	if !ok || r.Prefix.Len != 128 {
		t.Fatalf("Lookup = (%v,%v), want the /128", r, ok)
	}
	// The whole chain shares one address: deleting the /128 must fall
	// back to the /127, and so on.
	for ln := 128; ln > 0; ln-- {
		if !tbl.Delete(bits.MakePrefix(addr, ln)) {
			t.Fatalf("delete /%d failed", ln)
		}
		r, ok := tbl.Lookup(addr)
		if !ok || r.Prefix.Len != ln-1 {
			t.Fatalf("after deleting /%d: Lookup = (%v,%v), want /%d", ln, r, ok, ln-1)
		}
	}
	checkTileInvariants(t, tbl)
}

// TestTiledTCAMChurnInvariants drives a minimum-block table through a
// seeded insert/delete/replace campaign heavy in shared subtrees (so
// splits and merges actually fire) and checks the full structural
// invariant set throughout, with a map oracle for lookup agreement.
func TestTiledTCAMChurnInvariants(t *testing.T) {
	cfg := TiledTCAMConfig{BlockSize: MinTiledBlockSize + 1, MergeFill: 0.6}
	tbl := NewTiledTCAM(cfg)
	oracle := NewSequential()
	rng := rand.New(rand.NewSource(2003))

	base := bits.Word128{Hi: 0x2001000000000000}
	randPrefix := func() bits.Prefix {
		// Dense shared subtrees: addresses drawn from a few hundred
		// distinct /64s under one /16, lengths clustered deep.
		a := base.Or(bits.FromUint64(uint64(rng.Intn(300)) << 8)).Or(bits.FromUint64(uint64(rng.Intn(4))))
		lens := []int{16, 24, 48, 64, 120, 126, 127, 128, 128, 128}
		return bits.MakePrefix(a, lens[rng.Intn(len(lens))])
	}

	var live []bits.Prefix
	for step := 0; step < 4000; step++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			p := randPrefix()
			r := Route{Prefix: p, NextHop: bits.FromUint64(uint64(step)), Iface: step % 4, Metric: 1 + step%15}
			if err := tbl.Insert(r); err != nil {
				t.Fatalf("step %d: insert %v: %v", step, p, err)
			}
			if err := oracle.Insert(r); err != nil {
				t.Fatalf("step %d: oracle insert: %v", step, err)
			}
			live = append(live, p)
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			got, want := tbl.Delete(p), oracle.Delete(p)
			if got != want {
				t.Fatalf("step %d: Delete(%v) = %v, oracle %v", step, p, got, want)
			}
		}
		if step%200 == 199 {
			checkTileInvariants(t, tbl)
			for j := 0; j < 32; j++ {
				dst := base.Or(bits.FromUint64(uint64(rng.Intn(300))<<8 + uint64(rng.Intn(6))))
				got, gok := tbl.Lookup(dst)
				want, wok := oracle.Lookup(dst)
				if gok != wok || got != want {
					t.Fatalf("step %d: Lookup(%v) = (%v,%v), oracle (%v,%v)", step, dst, got, gok, want, wok)
				}
			}
		}
	}
	checkTileInvariants(t, tbl)
	st := tbl.TileStats()
	if st.Splits == 0 {
		t.Fatal("campaign never split a tile — workload not exercising the block budget")
	}
	if st.MaxOccupancy > cfg.BlockSize {
		t.Fatalf("max occupancy %d exceeds block budget %d", st.MaxOccupancy, cfg.BlockSize)
	}
	if rf := tbl.ReplicationFactor(); rf < 1 {
		t.Fatalf("replication factor %v below 1", rf)
	}

	// Drain: delete every remaining prefix. The merge path must collapse
	// the tiling all the way back — each subtree's final delete merges
	// its sibling leaves bottom-up, so the empty table is one tile again.
	for _, p := range tbl.Routes() {
		if !tbl.Delete(p.Prefix) {
			t.Fatalf("drain: Delete(%v) failed", p.Prefix)
		}
	}
	checkTileInvariants(t, tbl)
	st = tbl.TileStats()
	if tbl.Len() != 0 || st.OccupiedSlots != 0 {
		t.Fatalf("drained table not empty: len %d, occupied %d", tbl.Len(), st.OccupiedSlots)
	}
	if st.Merges == 0 {
		t.Fatal("drain never merged tiles — the merge path is dead")
	}
	if st.Tiles != 1 || st.IndexNodes != 0 {
		t.Fatalf("drained table still tiled: %d tiles, %d index nodes (want 1, 0)",
			st.Tiles, st.IndexNodes)
	}
}

// TestTiledTCAMMergeSizeMatchesMerge: on every sibling-leaf pair a
// minimum-block churn stress leaves behind — the pairs a later delete's
// merge walk meets — mergedSize equals the length of the block
// mergedEntries would build.
func TestTiledTCAMMergeSizeMatchesMerge(t *testing.T) {
	tbl := NewTiledTCAM(TiledTCAMConfig{BlockSize: MinTiledBlockSize, MergeFill: 0.5})
	rng := rand.New(rand.NewSource(38))
	base := bits.Word128{Hi: 0x2001000000000000}
	// Every length the index splits at occurs, so some pairs hold a
	// copy of their parent's own prefix.
	length := func() int {
		if rng.Intn(5) == 0 {
			return []int{0, 16, 48, 64}[rng.Intn(4)]
		}
		return 112 + rng.Intn(17)
	}
	pairs := 0
	check := func(step int) {
		var walk func(n *ttNode)
		walk = func(n *ttNode) {
			if n.leaf() {
				return
			}
			if c0, c1 := n.child[0], n.child[1]; c0.leaf() && c1.leaf() {
				pairs++
				if got, want := mergedSize(c0.tile, c1.tile, n.depth), len(tbl.mergedEntries(c0.tile, c1.tile, n.depth)); got != want {
					t.Fatalf("step %d: depth-%d pair: mergedSize %d, mergedEntries %d", step, n.depth, got, want)
				}
			}
			walk(n.child[0])
			walk(n.child[1])
		}
		walk(tbl.root)
	}
	var live []bits.Prefix
	for step := 0; step < 3000; step++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			a := base.Or(bits.FromUint64(uint64(rng.Intn(400))<<8 | uint64(rng.Intn(4))))
			p := bits.MakePrefix(a, length())
			if err := tbl.Insert(Route{Prefix: p, Iface: step % 4, Metric: 1}); err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
			continue
		}
		i := rng.Intn(len(live))
		tbl.Delete(live[i])
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		check(step)
	}
	for _, r := range tbl.Routes() {
		tbl.Delete(r.Prefix)
		check(-1)
	}
	if st := tbl.TileStats(); pairs == 0 || st.Merges == 0 {
		t.Fatalf("stress checked %d pairs over %d merges; want both non-zero", pairs, st.Merges)
	}
}

// TestTiledTCAMProbeAccounting pins the probe split: every lookup is
// exactly one tile activation plus depth-many index probes, the sum
// matching Stats.Probes and the per-depth histogram.
func TestTiledTCAMProbeAccounting(t *testing.T) {
	tbl := NewTiledTCAM(TiledTCAMConfig{BlockSize: MinTiledBlockSize + 1, MergeFill: 0})
	base := bits.Word128{Hi: 0x2001000000000000}
	for i := 0; i < 500; i++ {
		p := bits.MakePrefix(base.Or(bits.FromUint64(uint64(i))), 128)
		if err := tbl.Insert(Route{Prefix: p, Metric: 1}); err != nil {
			t.Fatal(err)
		}
	}
	tbl.ResetStats()
	const lookups = 257
	for i := 0; i < lookups; i++ {
		tbl.Lookup(base.Or(bits.FromUint64(uint64(i * 3))))
	}
	st := tbl.Stats()
	if st.Lookups != lookups {
		t.Fatalf("Lookups = %d, want %d", st.Lookups, lookups)
	}
	if tbl.TileProbes() != lookups {
		t.Fatalf("TileProbes = %d, want exactly one block activation per lookup (%d)",
			tbl.TileProbes(), lookups)
	}
	if got := tbl.IndexProbes() + tbl.TileProbes(); got != st.Probes {
		t.Fatalf("IndexProbes+TileProbes = %d, Stats.Probes = %d", got, st.Probes)
	}
	var histSum int64
	for _, c := range tbl.DepthProbes() {
		histSum += c
	}
	if histSum != st.Probes {
		t.Fatalf("depth histogram sums to %d, Stats.Probes = %d", histSum, st.Probes)
	}
	tbl.ResetStats()
	if tbl.Stats().Probes != 0 || tbl.IndexProbes() != 0 || tbl.TileProbes() != 0 {
		t.Fatal("ResetStats must clear the probe split")
	}
	for _, c := range tbl.DepthProbes() {
		if c != 0 {
			t.Fatal("ResetStats must clear the depth histogram")
		}
	}
}

// TestTiledTCAMMemDims pins the storage accounting the estimate layer
// prices: blocks × budget ternary cells of which one block is searched,
// occupied entries, index nodes.
func TestTiledTCAMMemDims(t *testing.T) {
	tbl := NewTiledTCAM(TiledTCAMConfig{BlockSize: MinTiledBlockSize + 1, MergeFill: 0.5})
	base := bits.Word128{Hi: 0x2001000000000000}
	for i := 0; i < 400; i++ {
		p := bits.MakePrefix(base.Or(bits.FromUint64(uint64(i))), 128)
		if err := tbl.Insert(Route{Prefix: p, Metric: 1}); err != nil {
			t.Fatal(err)
		}
	}
	dims := tbl.MemDims()
	st := tbl.TileStats()
	if dims.Entries != 400 {
		t.Fatalf("Entries = %d, want 400", dims.Entries)
	}
	block := tbl.Config().BlockSize
	if cells := records(dims, "cells"); cells != st.Tiles*block || st.Tiles < 4 {
		t.Fatalf("cells = %d, TileStats.Tiles = %d × %d (want several after 400 inserts at min block)",
			cells, st.Tiles, block)
	}
	if got := dims.Regions[2]; !got.Ternary || got.Searched != block {
		t.Fatalf("cells region %+v: want ternary, one %d-cell block searched", got, block)
	}
	if records(dims, "next hops") != st.OccupiedSlots {
		t.Fatalf("next hops = %d, OccupiedSlots = %d", records(dims, "next hops"), st.OccupiedSlots)
	}
	if n := records(dims, "index nodes"); n != st.IndexNodes || n != st.Tiles-1 {
		t.Fatalf("index nodes = %d, want internal count %d = tiles-1 = %d", n, st.IndexNodes, st.Tiles-1)
	}
}

// TileDump is one index node in preorder — the white-box view the
// external bulk-vs-loop differential (which needs workload, and so
// cannot live in this package) compares tile by tile.
type TileDump struct {
	Depth   int
	Leaf    bool
	Prefix  bits.Prefix
	Entries []Route
}

// DumpTiles walks the index in preorder, checking the structural
// invariants on the way.
func (t *TiledTCAMTable) DumpTiles(tb *testing.T) []TileDump {
	tb.Helper()
	checkTileInvariants(tb, t)
	var out []TileDump
	var walk func(n *ttNode)
	walk = func(n *ttNode) {
		if n.leaf() {
			out = append(out, TileDump{n.depth, true, n.tile.prefix, append([]Route{}, n.tile.entries...)})
			return
		}
		out = append(out, TileDump{Depth: n.depth})
		walk(n.child[0])
		walk(n.child[1])
	}
	walk(t.root)
	return out
}

// records returns the record count of d's region called name, 0 when d
// has none.
func records(d MemDims, name string) int {
	for _, r := range d.Regions {
		if r.Name == name {
			return r.Records
		}
	}
	return 0
}

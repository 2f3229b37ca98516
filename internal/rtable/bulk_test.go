// Bulk ≡ insert-loop differential for the flat-storage backends: the
// stride tries (multibit, compressed) and the binary trie fill their
// slabs top-down from the sorted batch and the balanced tree adopts the
// sorted batch as its state, and all must be indistinguishable — structure, accounting,
// lookup answers and probe counts, and behaviour under later churn —
// from the table the per-route Insert loop grows, whatever order the
// batch arrives in.
package rtable_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"taco/internal/bits"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// flatTable is what the comparisons need of a backend.
type flatTable interface {
	rtable.Table
	rtable.BulkLoader
}

// strideTable is a multibit or compressed table.
type strideTable interface {
	flatTable
	Depth() int
	LevelProbes() []int64
	DumpStride(testing.TB) []rtable.StrideNodeDump
	SlabLens() [4]int
}

var flatKinds = []rtable.Kind{rtable.Multibit, rtable.Compressed, rtable.BalancedTree, rtable.Trie}

// structure is the comparable shape of a table: the stride dump, the
// tree's node array, root and depth, the binary trie's preorder walk, or
// the tiled TCAM's index and tiles.
func structure(t *testing.T, tbl flatTable) any {
	t.Helper()
	switch tbl := tbl.(type) {
	case strideTable:
		return struct {
			Nodes []rtable.StrideNodeDump
			Depth int
		}{tbl.DumpStride(t), tbl.Depth()}
	case *rtable.BalancedTreeTable:
		nodes, root := tbl.Nodes()
		return struct {
			Nodes       []rtable.TreeNode
			Root, Depth int
		}{append([]rtable.TreeNode{}, nodes...), root, tbl.Depth()}
	case *rtable.TrieTable:
		return tbl.DumpTrie(t)
	case *rtable.TiledTCAMTable:
		return struct {
			Tiles []rtable.TileDump
			Stats rtable.TileStats
		}{tbl.DumpTiles(t), tbl.TileStats()}
	}
	t.Fatalf("no structural dump for %T", tbl)
	return nil
}

// requireSameTable fails unless got and want are structurally identical
// and answer dests identically, probe for probe.
func requireSameTable(t *testing.T, stage string, got, want flatTable, dests []bits.Word128) {
	t.Helper()
	if g, w := structure(t, got), structure(t, want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: structure differs:\n got  %+v\n want %+v", stage, g, w)
	}
	if g, w := got.MemDims(), want.MemDims(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: MemDims %+v, want %+v", stage, g, w)
	}
	if got.Len() != want.Len() || !sameRoutes(got.Routes(), want.Routes()) {
		t.Fatalf("%s: Routes() differ", stage)
	}
	got.ResetStats()
	want.ResetStats()
	for _, d := range dests {
		gr, gok := got.Lookup(d)
		wr, wok := want.Lookup(d)
		if gr != wr || gok != wok || got.Stats() != want.Stats() {
			t.Fatalf("%s: Lookup(%v) = (%v,%v) at %+v, want (%v,%v) at %+v",
				stage, d, gr, gok, got.Stats(), wr, wok, want.Stats())
		}
	}
	if g, ok := got.(strideTable); ok {
		if gl, wl := g.LevelProbes(), want.(strideTable).LevelProbes(); !slices.Equal(gl, wl) {
			t.Fatalf("%s: LevelProbes %v, want %v", stage, gl, wl)
		}
	}
}

func newFlat(k rtable.Kind) flatTable { return rtable.New(k).(flatTable) }

func insertLoop(t *testing.T, tbl rtable.Table, rs []rtable.Route) {
	t.Helper()
	for _, r := range rs {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
}

// checkFlatBulkEqualsLoop loads preload by point inserts into both
// tables, then rs by InsertAll into one and by the insert loop into the
// other, and requires the same table after the build and again after a
// churn stream replayed on both.
func checkFlatBulkEqualsLoop(t *testing.T, kind rtable.Kind, preload, rs []rtable.Route, churnOps int) {
	t.Helper()
	bulk, loop := newFlat(kind), newFlat(kind)
	insertLoop(t, bulk, preload)
	insertLoop(t, loop, preload)
	input := slices.Clone(rs)
	if err := bulk.InsertAll(rs); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rs, input) {
		t.Fatal("InsertAll mutated its argument")
	}
	insertLoop(t, loop, rs)
	live := loop.Routes()
	dests := workload.SampleDests(live, 4096, 0.05, 11)
	requireSameTable(t, "after build", bulk, loop, dests)

	churn := workload.GenerateChurn(live, workload.ChurnSpec{Ops: churnOps, Seed: 11})
	for _, tbl := range []rtable.Table{bulk, loop} {
		if _, err := workload.ApplyChurn(tbl, churn); err != nil {
			t.Fatal(err)
		}
	}
	requireSameTable(t, "after churn", bulk, loop, dests)
}

func largeRoutes(n int) []rtable.Route {
	return workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: n, Seed: 2003})
}

// fourLevelChain nests one address through the root and three more
// levels of the default 16-8-8-… schedule — two prefixes ending in each
// span — with a sibling leaf hanging off every node on the way.
func fourLevelChain() []rtable.Route {
	addr := bits.Word128{Hi: 0x20010db8dead0000, Lo: 0xbeef}
	var rs []rtable.Route
	for _, ln := range []int{128, 40, 37, 32, 29, 24, 20, 16, 9, 0} { // longest first: not insert-friendly
		rs = append(rs, rtable.Route{Prefix: bits.Prefix{Addr: addr, Len: ln}, Iface: ln % 4, Metric: 1})
	}
	for _, bit := range []uint{16, 24, 32, 40} { // flip the first bit each level indexes with
		rs = append(rs, rtable.Route{Prefix: bits.MakePrefix(addr.Xor(bits.Word128{Hi: 1 << (63 - bit)}), 64), Iface: 1, Metric: 2})
	}
	return rs
}

// wideSpan puts 300 routes into the root's span (every /16 of 2000::/8
// plus shorter covers) over a few deeper routes.
func wideSpan() []rtable.Route {
	var rs []rtable.Route
	for i := uint64(0); i < 256; i++ {
		rs = append(rs, rtable.Route{Prefix: bits.MakePrefix(bits.Word128{Hi: (0x2000 | i) << 48}, 16), Iface: int(i % 4), Metric: 1})
	}
	for i := uint64(0); i < 44; i++ {
		rs = append(rs, rtable.Route{Prefix: bits.MakePrefix(bits.Word128{Hi: (0x2000 | i<<2) << 48}, 14-int(i%3)), Iface: 2, Metric: 3})
	}
	for i := uint64(0); i < 8; i++ {
		rs = append(rs, rtable.Route{Prefix: bits.MakePrefix(bits.Word128{Hi: 0x2001<<48 | i<<20}, 48), Iface: 3, Metric: 5})
	}
	return rs
}

// dirtyDuplicates re-announces half of a generated set with host bits
// set and different attributes: the last of each prefix must win.
func dirtyDuplicates() []rtable.Route {
	rs := largeRoutes(600)
	for i := 0; i < 300; i++ {
		r := rs[(i*7)%600]
		r.Prefix.Addr = r.Prefix.Addr.Or(bits.FromUint64(uint64(i) | 1))
		r.Iface, r.Metric, r.Tag = (r.Iface+1)%4, 15, uint16(i)
		rs = append(rs, r)
	}
	return rs
}

func flatCases() []struct {
	name        string
	preload, rs []rtable.Route
} {
	lone := []rtable.Route{{Prefix: bits.MakePrefix(bits.Word128{Hi: 0x20010db800000000, Lo: 1}, 128), Metric: 1}}
	return []struct {
		name        string
		preload, rs []rtable.Route
	}{
		{"large-1e3", nil, largeRoutes(1000)},
		{"large-3e3", nil, largeRoutes(3000)},
		{"large-1e4", nil, largeRoutes(10000)},
		{"four-level-chain", nil, fourLevelChain()},
		{"wide-span", nil, wideSpan()},
		{"lone-host", nil, lone},
		{"duplicates", nil, dirtyDuplicates()},
		{"empty", nil, nil},
		// A receiver that already holds routes: the stride tries keep the
		// insert loop, the tree merges the batch into its array.
		{"non-empty", dirtyDuplicates()[:400], largeRoutes(2000)},
	}
}

func TestStrideBulkEqualsInsertLoop(t *testing.T) {
	for _, kind := range []rtable.Kind{rtable.Multibit, rtable.Compressed} {
		for _, c := range flatCases() {
			t.Run(kind.String()+"/"+c.name, func(t *testing.T) {
				checkFlatBulkEqualsLoop(t, kind, c.preload, c.rs, 500)
			})
		}
	}
}

func TestTrieBulkEqualsInsertLoop(t *testing.T) {
	for _, c := range flatCases() {
		t.Run(c.name, func(t *testing.T) {
			checkFlatBulkEqualsLoop(t, rtable.Trie, c.preload, c.rs, 500)
		})
	}
}

// treeLoopLimit keeps the default suite quick: the reference insert
// loop re-derives the whole tree per route, ~1 ms each at 10^4 routes.
// The slow suite (bulk_slow_test.go) runs the cases above it.
const treeLoopLimit = 5000

func TestTreeBulkEqualsInsertLoop(t *testing.T) {
	for _, c := range flatCases() {
		if len(c.rs) > treeLoopLimit {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			checkFlatBulkEqualsLoop(t, rtable.BalancedTree, c.preload, c.rs, 500)
		})
	}
}

// TestTreeBorrowedBatch: a tree bulk-built from a batch already in
// SortedRoutes order keeps the batch and reads it in place. Played a
// churn stream, it answers lookup for lookup, probe for probe, as a tree
// built from a private copy, and the batch is left exactly as it was:
// the first point update clones it before splicing.
func TestTreeBorrowedBatch(t *testing.T) {
	batch := rtable.SortedRoutes(largeRoutes(10000))
	before := slices.Clone(batch)
	borrowed, private := newFlat(rtable.BalancedTree), newFlat(rtable.BalancedTree)
	if err := borrowed.InsertAll(batch); err != nil {
		t.Fatal(err)
	}
	if err := private.InsertAll(slices.Clone(batch)); err != nil {
		t.Fatal(err)
	}
	dests := workload.SampleDests(batch, 2048, 0.05, 11)
	requireSameTable(t, "after build", borrowed, private, dests)
	for i, op := range workload.GenerateChurn(batch, workload.ChurnSpec{Ops: 300, Seed: 11}) {
		for _, tbl := range []rtable.Table{borrowed, private} {
			if _, err := workload.ApplyChurn(tbl, []workload.ChurnOp{op}); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range dests[:128] {
			gr, gok := borrowed.Lookup(d)
			wr, wok := private.Lookup(d)
			if gr != wr || gok != wok {
				t.Fatalf("op %d: Lookup(%v) = (%v,%v), private copy (%v,%v)", i, d, gr, gok, wr, wok)
			}
		}
	}
	requireSameTable(t, "after churn", borrowed, private, dests)
	if !slices.Equal(batch, before) {
		t.Fatal("the churned tree wrote to the batch it was built from")
	}
}

// TestTreeSortedBuildBytes: a bulk build from a sorted batch of 10^4
// routes allocates the node array and nothing in proportion to the
// routes or ranges: a clone of the batch (64 B a route), a copy of its
// prefixes (24 B a route), a materialised range array (48 B a range) or
// a node array sized for 2n (~12 B a route more) each break the bound.
func TestTreeSortedBuildBytes(t *testing.T) {
	rs := rtable.SortedRoutes(largeRoutes(10000))
	const runs = 4
	var tbl *rtable.BalancedTreeTable
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		tbl = rtable.NewBalancedTree()
		if err := tbl.InsertAll(rs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	nodes, _ := tbl.Nodes()
	want := float64(uintptr(len(nodes))*unsafe.Sizeof(rtable.TreeNode{}) + 8*uintptr(len(rs))) // 8 B a route of slack
	if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > want {
		t.Errorf("sorted-batch build of %d routes (%d ranges) allocated %.0f bytes, want <= %.0f",
			len(rs), len(nodes), got, want)
	}
}

// TestTreeMergeBuildBytes: a batch loaded into a tree that holds routes
// is merged with them in one buffer, sorted where it lies: the build
// allocates that buffer, the sort's keys and the node array, not a clone
// of the old routes, a grown append and a sorted copy besides.
func TestTreeMergeBuildBytes(t *testing.T) {
	rs := largeRoutes(10000)
	old, batch := rtable.SortedRoutes(rs[:5000]), rs[5000:]
	const runs = 4
	var got uint64
	var tbl *rtable.BalancedTreeTable
	for i := 0; i < runs; i++ {
		tbl = rtable.NewBalancedTree()
		if err := tbl.InsertAll(old); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := tbl.InsertAll(batch); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got += after.TotalAlloc - before.TotalAlloc
	}
	nodes, _ := tbl.Nodes()
	if want := len(rtable.SortedRoutes(rs)); tbl.Len() != want {
		t.Fatalf("merged table holds %d routes, want %d", tbl.Len(), want)
	}
	// The merged buffer and the sort's keys (32 B) a route, plus 16 B a
	// route of slack for the sort's bucket counts and size classes.
	perRoute := unsafe.Sizeof(rtable.Route{}) + 32 + 16
	want := float64(uintptr(len(nodes))*unsafe.Sizeof(rtable.TreeNode{}) + perRoute*uintptr(len(rs)))
	avg := float64(got) / runs
	if raceEnabled {
		// The race runtime's own allocations inflate TotalAlloc.
		t.Logf("race build: merge allocated %.0f bytes; the bound %.0f is checked without -race", avg, want)
		return
	}
	if avg > want {
		t.Errorf("merging %d routes into %d allocated %.0f bytes, want <= %.0f", len(batch), len(old), avg, want)
	}
}

// raceEnabled is set under the race detector, whose runtime allocates
// on the program's behalf.
var raceEnabled bool

// referenceSorted is SortedRoutes by one stable sort of the whole set:
// canonical prefixes in (address, length) order, the last duplicate kept.
func referenceSorted(rs []rtable.Route) []rtable.Route {
	out := slices.Clone(rs)
	for i := range out {
		out[i].Prefix = bits.MakePrefix(out[i].Prefix.Addr, out[i].Prefix.Len)
	}
	slices.SortStableFunc(out, func(a, b rtable.Route) int { return a.Prefix.Cmp(b.Prefix) })
	kept := out[:0]
	for i, r := range out {
		if i+1 < len(out) && out[i+1].Prefix == r.Prefix {
			continue
		}
		kept = append(kept, r)
	}
	return kept
}

// TestSortedRoutesMatchesFullSort: the bucketed sort equals one sort of
// the whole set on spread-out, crowded, short-prefix, duplicate-laden
// and tiny inputs; on a set whose high words are all equal (one bucket,
// the fallback sort), one whose high words differ only in their low 8
// bits (an 8-bit bucket index), and one spread across the top address
// bit, each with duplicates; and so does the in-place sort, whose index
// leads every input route to the one holding its prefix.
func TestSortedRoutesMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var crowded, short, oneHi, low8, topBit []rtable.Route
	for i := 0; i < 3000; i++ {
		a := bits.Word128{Hi: 0x20010db800000000 | uint64(rng.Intn(1<<20)), Lo: rng.Uint64()}
		crowded = append(crowded, rtable.Route{Prefix: bits.Prefix{Addr: a, Len: 32 + rng.Intn(97)}, Iface: i % 4, Metric: 1})
		short = append(short, rtable.Route{Prefix: bits.Prefix{Addr: bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()}, Len: rng.Intn(20)}, Iface: i % 4, Metric: 2})
		a = bits.Word128{Hi: 0x20010db800000000, Lo: rng.Uint64() >> rng.Intn(64)}
		oneHi = append(oneHi, rtable.Route{Prefix: bits.Prefix{Addr: a, Len: 64 + rng.Intn(65)}, Iface: i % 4, Metric: 3})
		a = bits.Word128{Hi: 0x20010db8000000a0 | uint64(rng.Intn(1<<8)), Lo: rng.Uint64()}
		low8 = append(low8, rtable.Route{Prefix: bits.Prefix{Addr: a, Len: 64 + rng.Intn(65)}, Iface: i % 4, Metric: 4})
		a = bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()}
		topBit = append(topBit, rtable.Route{Prefix: bits.Prefix{Addr: a, Len: 1 + rng.Intn(128)}, Iface: i % 4, Metric: 5})
	}
	for _, rs := range []*[]rtable.Route{&oneHi, &low8, &topBit} {
		for i := 0; i < 500; i++ { // re-announce earlier prefixes: the later one survives
			r := (*rs)[rng.Intn(len(*rs))]
			r.Iface, r.Tag = (r.Iface+1)%4, uint16(i)
			*rs = append(*rs, r)
		}
	}
	shuffled := largeRoutes(10000)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, rs := range map[string][]rtable.Route{
		"large-1e4": largeRoutes(10000), "shuffled": shuffled, "duplicates": dirtyDuplicates(),
		"crowded": crowded, "short": short, "one": largeRoutes(1), "empty": nil,
		"one-hi": oneHi, "low-8": low8, "top-bit": topBit,
	} {
		input := slices.Clone(rs)
		got := rtable.SortedRoutes(rs)
		if !slices.Equal(rs, input) {
			t.Fatalf("%s: SortedRoutes mutated its argument", name)
		}
		if want := referenceSorted(rs); !slices.Equal(got, want) {
			t.Errorf("%s: SortedRoutes differs from a full sort (%d vs %d routes)", name, len(got), len(want))
		}
		at := make([]int32, len(rs))
		sorted := rtable.SortRoutesInPlace(slices.Clone(rs), at)
		if !slices.Equal(sorted, got) {
			t.Errorf("%s: SortRoutesInPlace differs from SortedRoutes", name)
		}
		for i, r := range rs {
			if p := bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len); sorted[at[i]].Prefix != p {
				t.Fatalf("%s: input %d (%v) indexes %v", name, i, p, sorted[at[i]].Prefix)
			}
		}
	}
}

// TestFlatBuildOrderIndependent: generator order, sorted, reverse-sorted
// and a seeded shuffle of one route set build the identical table, the
// tiled TCAM included.
func TestFlatBuildOrderIndependent(t *testing.T) {
	rs := append(largeRoutes(3000), fourLevelChain()...)
	sorted := rtable.SortedRoutes(rs)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	shuffled := slices.Clone(rs)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dests := workload.SampleDests(sorted, 512, 0.05, 11)
	for _, kind := range append(flatKinds, rtable.TiledTCAM) {
		want := newFlat(kind)
		if err := want.InsertAll(rs); err != nil {
			t.Fatal(err)
		}
		for name, order := range map[string][]rtable.Route{"sorted": sorted, "reversed": reversed, "shuffled": shuffled} {
			got := newFlat(kind)
			if err := got.InsertAll(order); err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, kind.String()+"/"+name, got, want, dests)
		}
	}
}

// TestStrideSlabReuse: deleting and re-inserting the same routes round
// after round must be served from the free lists — after the first
// round has turned the bulk build's exact-fit runs into recyclable
// ones, no slab grows and the accounting returns to where it was.
func TestStrideSlabReuse(t *testing.T) {
	rs := largeRoutes(10000)
	victims := slices.Clone(rs)
	rand.New(rand.NewSource(5)).Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	victims = victims[:2000]
	for _, kind := range []rtable.Kind{rtable.Multibit, rtable.Compressed} {
		tbl := newFlat(kind).(strideTable)
		if err := tbl.InsertAll(rs); err != nil {
			t.Fatal(err)
		}
		built := tbl.DumpStride(t)
		var slabs [4]int
		var dims rtable.MemDims
		for round := 1; round <= 20; round++ {
			for _, r := range victims {
				if !tbl.Delete(r.Prefix) {
					t.Fatalf("%v round %d: Delete(%v) missed", kind, round, r.Prefix)
				}
			}
			insertLoop(t, tbl, victims)
			if round == 1 {
				slabs, dims = tbl.SlabLens(), tbl.MemDims()
				if !reflect.DeepEqual(tbl.DumpStride(t), built) {
					t.Fatalf("%v: trie changed shape over a delete/re-insert round", kind)
				}
				continue
			}
			if got := tbl.SlabLens(); got != slabs {
				t.Fatalf("%v round %d: slabs grew to %v from %v", kind, round, got, slabs)
			}
			if got := tbl.MemDims(); !reflect.DeepEqual(got, dims) {
				t.Fatalf("%v round %d: MemDims %+v, round 1 left %+v", kind, round, got, dims)
			}
		}
		if !reflect.DeepEqual(tbl.DumpStride(t), built) {
			t.Fatalf("%v: trie changed shape after 20 rounds", kind)
		}
	}
}

// TestTrieSlabReuse: round after round of inserting every route and
// deleting them all again is served from the free lists — no slab grows
// past its first-round length, and every drained round leaves the root
// alone.
func TestTrieSlabReuse(t *testing.T) {
	rs := largeRoutes(10000)
	rng := rand.New(rand.NewSource(5))
	tbl := rtable.NewTrie()
	var slabs [2]int
	for round := 1; round <= 5; round++ {
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		insertLoop(t, tbl, rs)
		if round == 1 {
			slabs = tbl.SlabLens()
		} else if got := tbl.SlabLens(); got != slabs {
			t.Fatalf("round %d: slabs grew to %v from %v", round, got, slabs)
		}
		for _, r := range rs {
			if !tbl.Delete(r.Prefix) {
				t.Fatalf("round %d: Delete(%v) missed", round, r.Prefix)
			}
		}
		if n, nodes := tbl.Len(), tbl.MemDims().Regions[0].Records; n != 0 || nodes != 1 {
			t.Fatalf("round %d: drained trie holds %d routes in %d nodes, want 0 in 1", round, n, nodes)
		}
	}
}

// TestTrieBulkHeadroom: the headroom a bulk build leaves takes a churn
// stream of 0.4 ops per route without regrowing either slab; the stream
// grows the node count by 26 %. (The rtable-churn bench plays under 0.1
// ops per route.)
func TestTrieBulkHeadroom(t *testing.T) {
	rs := largeRoutes(10000)
	tbl := rtable.NewTrie()
	if err := tbl.InsertAll(rs); err != nil {
		t.Fatal(err)
	}
	caps := tbl.SlabCaps()
	ops := workload.GenerateChurn(rs, workload.ChurnSpec{Ops: 4000, Seed: 2003, Ifaces: 4})
	if _, err := workload.ApplyChurn(tbl, ops); err != nil {
		t.Fatal(err)
	}
	if got := tbl.SlabCaps(); got != caps {
		t.Fatalf("churn regrew the slabs: capacities %v, built with %v", got, caps)
	}
}

// TestFlatBuildAllocs: a 10^4-route bulk build is a handful of slab
// allocations, not one per node or route, and a lookup allocates nothing.
func TestFlatBuildAllocs(t *testing.T) {
	rs := largeRoutes(10000)
	dests := workload.SampleDests(rs, 64, 0.05, 11)
	for _, kind := range flatKinds {
		var tbl rtable.Table
		build := testing.AllocsPerRun(3, func() {
			tbl = rtable.New(kind)
			if err := rtable.InsertAll(tbl, rs); err != nil {
				t.Fatal(err)
			}
		})
		if build > 64 {
			t.Errorf("%v: InsertAll of %d routes made %.0f allocations, want <= 64", kind, len(rs), build)
		}
		if lookup := testing.AllocsPerRun(10, func() {
			for _, d := range dests {
				tbl.Lookup(d)
			}
		}); lookup != 0 {
			t.Errorf("%v: %d lookups made %.0f allocations", kind, len(dests), lookup)
		}
	}
}

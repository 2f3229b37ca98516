// Bulk ≡ insert-loop differential for the tiled TCAM: InsertAll into an
// empty table builds the tiling top-down, and must be indistinguishable
// — index shape, tile prefixes, entry order, accounting, lookup answers
// and probe counts, and behaviour under later churn — from the table the
// shortest-first Insert loop grows.
package rtable_test

import (
	"reflect"
	"slices"
	"testing"

	"taco/internal/bits"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// loopOrder is the order the insert loop has always used: shortest
// prefix first, address ascending, input order kept among duplicates.
func loopOrder(rs []rtable.Route) []rtable.Route {
	out := slices.Clone(rs)
	slices.SortStableFunc(out, func(a, b rtable.Route) int {
		pa, pb := bits.MakePrefix(a.Prefix.Addr, a.Prefix.Len), bits.MakePrefix(b.Prefix.Addr, b.Prefix.Len)
		if pa.Len != pb.Len {
			return pa.Len - pb.Len
		}
		return pa.Addr.Cmp(pb.Addr)
	})
	return out
}

// requireSameTiling fails unless the two tables are structurally
// identical and answer dests identically, probe for probe.
func requireSameTiling(t *testing.T, stage string, got, want *rtable.TiledTCAMTable, dests []bits.Word128) {
	t.Helper()
	if g, w := got.DumpTiles(t), want.DumpTiles(t); !reflect.DeepEqual(g, w) {
		if len(g) != len(w) {
			t.Fatalf("%s: index has %d nodes, insert loop built %d", stage, len(g), len(w))
		}
		for i := range g {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Fatalf("%s: node %d differs:\n bulk %+v\n loop %+v", stage, i, g[i], w[i])
			}
		}
	}
	if g, w := got.MemDims(), want.MemDims(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: MemDims %+v, loop %+v", stage, g, w)
	}
	if g, w := got.TileStats(), want.TileStats(); g != w {
		t.Fatalf("%s: TileStats %+v, loop %+v", stage, g, w)
	}
	if g, w := got.ReplicationFactor(), want.ReplicationFactor(); g != w {
		t.Fatalf("%s: ReplicationFactor %v, loop %v", stage, g, w)
	}
	if !sameRoutes(got.Routes(), want.Routes()) {
		t.Fatalf("%s: Routes() differ", stage)
	}
	got.ResetStats()
	want.ResetStats()
	for _, d := range dests {
		gr, gok := got.Lookup(d)
		wr, wok := want.Lookup(d)
		if gr != wr || gok != wok {
			t.Fatalf("%s: Lookup(%v) = (%v,%v), loop (%v,%v)", stage, d, gr, gok, wr, wok)
		}
	}
	if got.Stats() != want.Stats() || got.IndexProbes() != want.IndexProbes() || got.TileProbes() != want.TileProbes() {
		t.Fatalf("%s: probes %+v/%d/%d, loop %+v/%d/%d", stage,
			got.Stats(), got.IndexProbes(), got.TileProbes(), want.Stats(), want.IndexProbes(), want.TileProbes())
	}
	if g, w := got.DepthProbes(), want.DepthProbes(); !slices.Equal(g, w) {
		t.Fatalf("%s: DepthProbes %v, loop %v", stage, g, w)
	}
}

// checkBulkEqualsLoop loads preload by point inserts into both tables,
// then rs by InsertAll into one and by the insert loop into the other,
// and requires the same tiling — after the build, after a churn stream,
// and after a dense burst of hosts that must split built tiles. It
// returns the final tiling state.
func checkBulkEqualsLoop(t *testing.T, cfg rtable.TiledTCAMConfig, preload, rs []rtable.Route, churnOps int) rtable.TileStats {
	t.Helper()
	bulk, loop := rtable.NewTiledTCAM(cfg), rtable.NewTiledTCAM(cfg)
	for _, r := range preload {
		if err := bulk.Insert(r); err != nil {
			t.Fatal(err)
		}
		if err := loop.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	input := slices.Clone(rs)
	if err := bulk.InsertAll(rs); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rs, input) {
		t.Fatal("InsertAll mutated its argument")
	}
	for _, r := range loopOrder(rs) {
		if err := loop.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	live := loop.Routes()
	dests := workload.SampleDests(live, 4096, 0.05, 11)
	requireSameTiling(t, "after build", bulk, loop, dests)
	if churnOps == 0 {
		return bulk.TileStats()
	}
	churn := workload.GenerateChurn(live, workload.ChurnSpec{Ops: churnOps, Seed: 11})
	var dense bits.Word128
	if len(live) > 0 {
		dense = live[len(live)/2].Prefix.Addr
	}
	for i := 0; i <= cfg.BlockSize; i++ {
		churn = append(churn, workload.ChurnOp{Op: workload.ChurnInsert, Route: rtable.Route{
			Prefix: bits.MakePrefix(dense.Or(bits.FromUint64(uint64(i))), 128), Iface: i % 4, Metric: 4,
		}})
	}
	built := bulk.TileStats()
	for _, tbl := range []rtable.Table{bulk, loop} {
		if _, err := workload.ApplyChurn(tbl, churn); err != nil {
			t.Fatal(err)
		}
	}
	requireSameTiling(t, "after churn", bulk, loop, dests)
	if bulk.TileStats().Splits == built.Splits {
		t.Fatal("the dense burst never split a bulk-built tile")
	}
	return bulk.TileStats()
}

// nestedChain is the /0../128 chain over one address plus sibling hosts
// differing in ever lower bits, so the chain's tile splits all the way
// down at a minimum-size block.
func nestedChain() []rtable.Route {
	addr := bits.Word128{Hi: 0x20010db8dead0000, Lo: 0xbeef}
	var rs []rtable.Route
	for ln := 128; ln >= 0; ln-- { // longest first: the loop must reorder
		rs = append(rs, rtable.Route{Prefix: bits.Prefix{Addr: addr, Len: ln}, Iface: ln % 4, Metric: 1})
	}
	for b := uint(0); b < 40; b++ {
		rs = append(rs, rtable.Route{Prefix: bits.MakePrefix(addr.Xor(bits.FromUint64(1<<b)), 128), Iface: 1, Metric: 2})
	}
	return rs
}

// coveringSet is dominated by short covering prefixes: every length
// 0..24 along four paths, over dense /64s and hosts that force splits
// well below them, so covering copies ride through many splits.
func coveringSet() []rtable.Route {
	rng := workload.NewRNG(7)
	var rs []rtable.Route
	for p := uint64(0); p < 4; p++ {
		path := bits.Word128{Hi: 0x2001000000000000 | p<<44 | p<<38}
		for ln := 0; ln <= 24; ln++ {
			rs = append(rs, rtable.Route{Prefix: bits.MakePrefix(path, ln), Iface: int(p), Metric: 1 + ln%15})
		}
		for i := 0; i < 400; i++ {
			a := path.Or(bits.Word128{Hi: uint64(rng.Intn(64)) << 8, Lo: uint64(rng.Intn(8))})
			rs = append(rs, rtable.Route{Prefix: bits.MakePrefix(a, []int{64, 128, 128}[i%3]), Iface: i % 4, Metric: 3})
		}
	}
	return rs
}

// exactFit fills both halves of the address space to exactly one block
// each: the root must split, its children must not.
func exactFit(block int) []rtable.Route {
	var rs []rtable.Route
	for _, hi := range []uint64{0x2001 << 48, 0xa001 << 48} {
		for i := 0; i < block; i++ {
			rs = append(rs, rtable.Route{Prefix: bits.MakePrefix(bits.Word128{Hi: hi, Lo: uint64(i)}, 128), Metric: 1})
		}
	}
	return rs
}

func TestTiledTCAMBulkEqualsInsertLoop(t *testing.T) {
	def := rtable.DefaultTiledTCAMConfig()
	min := rtable.TiledTCAMConfig{BlockSize: rtable.MinTiledBlockSize, MergeFill: 0.6}
	large := func(n int) []rtable.Route {
		return workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: n, Seed: 2003})
	}
	// Duplicates with dirty host bits and differing attributes: the last
	// of each prefix must win, in the owner tile and in every copy.
	dups := large(600)
	for i := 0; i < 300; i++ {
		r := dups[(i*7)%600]
		r.Prefix.Addr = r.Prefix.Addr.Or(bits.FromUint64(uint64(i) | 1))
		r.Iface, r.Metric, r.Tag = (r.Iface+1)%4, 15, uint16(i)
		dups = append(dups, r)
	}
	cases := []struct {
		name    string
		cfg     rtable.TiledTCAMConfig
		preload []rtable.Route
		rs      []rtable.Route
	}{
		{"large-1e3", def, nil, large(1000)},
		{"large-1e4", def, nil, large(10000)},
		{"large-1e4-minblock", min, nil, large(10000)},
		{"nested-chain", min, nil, nestedChain()},
		{"covering", min, nil, coveringSet()},
		{"exact-fit", min, nil, exactFit(min.BlockSize)},
		{"duplicates", min, nil, dups},
		// Sorted batches, the form a sweep hands the table: bulkLoad
		// skips its sort and orders by one pass over prefix length.
		{"sorted-1e4", def, nil, rtable.SortedRoutes(large(10000))},
		{"sorted-1e4-minblock", min, nil, rtable.SortedRoutes(large(10000))},
		{"sorted-duplicates", min, nil, rtable.SortedRoutes(dups)},
		{"empty", def, nil, nil},
		// A receiver that already holds routes keeps the insert loop.
		{"non-empty", min, coveringSet()[:300], large(2000)},
	}
	var merges int64
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { merges += checkBulkEqualsLoop(t, c.cfg, c.preload, c.rs, 500).Merges })
	}
	if merges == 0 {
		t.Fatal("no case merged tiles under churn — the merge path went uncompared")
	}
}

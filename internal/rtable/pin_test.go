// Modelled-hardware pins for the trie, the balanced tree and the tiled
// TCAM: probe counts, trie node records, the tree's node array and the
// tiling state after a generated build, churn stream and lookup sample.
// They count what the hardware would hold and do, so a change to how a
// backend stores its state must leave every value as it is; the values
// were taken from the pointer trie, the tree that built its nodes from
// a materialised range array, and the tiled TCAM that built every merge
// candidate before sizing it.
package rtable_test

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"taco/internal/rtable"
	"taco/internal/workload"
)

// pinStates builds tbl from 10^4 generated routes and plays a generated
// churn stream into it, then deletes every second installed route, so
// tiles merge. After each of the two it resets the counters, looks up a
// sample of destinations and calls snap.
func pinStates(t *testing.T, tbl rtable.Table, snap func()) {
	t.Helper()
	routes := largeRoutes(10000)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		t.Fatal(err)
	}
	ops := workload.GenerateChurn(routes, workload.ChurnSpec{Ops: 4000, Seed: 2003, Ifaces: 4})
	if _, err := workload.ApplyChurn(tbl, ops); err != nil {
		t.Fatal(err)
	}
	dests := workload.SampleDests(routes, 4096, 0.05, 2003)
	lookups := func() {
		tbl.ResetStats()
		for _, d := range dests {
			tbl.Lookup(d)
		}
		snap()
	}
	lookups()
	for i, r := range tbl.Routes() {
		if i%2 == 0 && !tbl.Delete(r.Prefix) {
			t.Fatalf("Delete(%v) missed", r.Prefix)
		}
	}
	lookups()
}

func TestTriePinned(t *testing.T) {
	type pin struct {
		Len, Nodes int
		Probes     int64
	}
	want := []pin{{Len: 10443, Nodes: 163823, Probes: 174447}, {Len: 5221, Nodes: 94147, Probes: 155010}}
	tbl := rtable.NewTrie()
	var got []pin
	pinStates(t, tbl, func() {
		got = append(got, pin{tbl.Len(), tbl.MemDims().Regions[0].Records, tbl.Stats().Probes})
	})
	if !slices.Equal(got, want) {
		t.Errorf("trie: got %#v, want %#v", got, want)
	}
}

// TestTreePinned holds the balanced tree's node array — its length,
// root, depth and an FNV-64a digest of every node's range, children and
// owner — with its probe count, so a change to how the tree lays out
// its nodes must reproduce the array the routing-table unit reads.
func TestTreePinned(t *testing.T) {
	type pin struct {
		Len, Nodes, Root, Depth int
		Probes                  int64
		Digest                  uint64
	}
	want := []pin{
		{Len: 10443, Nodes: 16104, Root: 0, Depth: 14, Probes: 53367, Digest: 0x5aad9b19917b4503},
		{Len: 5221, Nodes: 6756, Root: 0, Depth: 13, Probes: 49841, Digest: 0x10429d0eed81f5c},
	}
	tbl := rtable.NewBalancedTree()
	var got []pin
	pinStates(t, tbl, func() {
		nodes, root := tbl.Nodes()
		h := fnv.New64a()
		for _, n := range nodes {
			binary.Write(h, binary.LittleEndian, [7]int64{int64(n.First.Hi), int64(n.First.Lo),
				int64(n.Last.Hi), int64(n.Last.Lo), int64(n.Left), int64(n.Right), int64(n.Owner)})
		}
		got = append(got, pin{tbl.Len(), len(nodes), root, tbl.Depth(), tbl.Stats().Probes, h.Sum64()})
	})
	if !slices.Equal(got, want) {
		t.Errorf("balanced tree: got %#v, want %#v", got, want)
	}
}

func TestTiledTCAMPinned(t *testing.T) {
	type pin struct {
		rtable.TileStats
		Probes int64
	}
	for _, c := range []struct {
		block int
		want  []pin
	}{
		{rtable.DefaultTiledTCAMConfig().BlockSize, []pin{
			{rtable.TileStats{Tiles: 67, IndexNodes: 66, OccupiedSlots: 10443, MaxOccupancy: 236, Splits: 66}, 43933},
			{rtable.TileStats{Tiles: 63, IndexNodes: 62, OccupiedSlots: 5221, MaxOccupancy: 128, Splits: 66, Merges: 4}, 43511},
		}},
		{rtable.MinTiledBlockSize, []pin{
			{rtable.TileStats{Tiles: 125, IndexNodes: 124, OccupiedSlots: 10443, MaxOccupancy: 125, Splits: 124}, 47885},
			{rtable.TileStats{Tiles: 119, IndexNodes: 118, OccupiedSlots: 5221, MaxOccupancy: 63, Splits: 124, Merges: 6}, 47561},
		}},
	} {
		cfg := rtable.DefaultTiledTCAMConfig()
		cfg.BlockSize = c.block
		tbl := rtable.NewTiledTCAM(cfg)
		var got []pin
		pinStates(t, tbl, func() { got = append(got, pin{tbl.TileStats(), tbl.Stats().Probes}) })
		if !slices.Equal(got, c.want) {
			t.Errorf("block %d: got %#v, want %#v", c.block, got, c.want)
		}
	}
}

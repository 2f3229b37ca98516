package rtable

import (
	"math/rand"
	"testing"

	"taco/internal/bits"
)

func pfx(w0, w1 uint32, ln int) bits.Prefix {
	return bits.MakePrefix(bits.FromWords(w0, w1, 0, 0), ln)
}

func route(p bits.Prefix, iface int) Route {
	return Route{Prefix: p, Iface: iface, Metric: 1}
}

func allKinds(t *testing.T) []Table {
	t.Helper()
	out := make([]Table, len(Kinds))
	for i, k := range Kinds {
		out[i] = New(k)
		if out[i].Kind() != k {
			t.Fatalf("New(%v).Kind() = %v", k, out[i].Kind())
		}
	}
	return out
}

func TestBasicInsertLookup(t *testing.T) {
	for _, tbl := range allKinds(t) {
		t.Run(tbl.Kind().String(), func(t *testing.T) {
			p16 := pfx(0x20010000, 0, 16)
			p32 := pfx(0x20010db8, 0, 32)
			if err := tbl.Insert(route(p16, 1)); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Insert(route(p32, 2)); err != nil {
				t.Fatal(err)
			}
			if tbl.Len() != 2 {
				t.Fatalf("Len = %d", tbl.Len())
			}
			// Longest prefix must win inside the /32.
			if r, ok := tbl.Lookup(bits.FromWords(0x20010db8, 5, 0, 0)); !ok || r.Iface != 2 {
				t.Errorf("nested lookup = %+v, %v", r, ok)
			}
			// Outside the /32 but inside the /16.
			if r, ok := tbl.Lookup(bits.FromWords(0x20010001, 0, 0, 0)); !ok || r.Iface != 1 {
				t.Errorf("outer lookup = %+v, %v", r, ok)
			}
			// Total miss.
			if _, ok := tbl.Lookup(bits.FromWords(0x30000000, 0, 0, 0)); ok {
				t.Error("miss reported as hit")
			}
		})
	}
}

func TestInsertReplaces(t *testing.T) {
	for _, tbl := range allKinds(t) {
		p := pfx(0x20010000, 0, 16)
		if err := tbl.Insert(route(p, 1)); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(route(p, 9)); err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != 1 {
			t.Errorf("%v: Len = %d after replace", tbl.Kind(), tbl.Len())
		}
		if r, ok := tbl.Lookup(p.Addr); !ok || r.Iface != 9 {
			t.Errorf("%v: replaced route = %+v, %v", tbl.Kind(), r, ok)
		}
	}
}

func TestDelete(t *testing.T) {
	for _, tbl := range allKinds(t) {
		p16 := pfx(0x20010000, 0, 16)
		p32 := pfx(0x20010db8, 0, 32)
		if err := tbl.Insert(route(p16, 1)); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(route(p32, 2)); err != nil {
			t.Fatal(err)
		}
		if !tbl.Delete(p32) {
			t.Errorf("%v: Delete existing returned false", tbl.Kind())
		}
		if tbl.Delete(p32) {
			t.Errorf("%v: Delete missing returned true", tbl.Kind())
		}
		// The /16 must now own the formerly nested space.
		if r, ok := tbl.Lookup(bits.FromWords(0x20010db8, 5, 0, 0)); !ok || r.Iface != 1 {
			t.Errorf("%v: post-delete lookup = %+v, %v", tbl.Kind(), r, ok)
		}
		if tbl.Len() != 1 {
			t.Errorf("%v: Len = %d", tbl.Kind(), tbl.Len())
		}
	}
}

func TestDefaultRoute(t *testing.T) {
	for _, tbl := range allKinds(t) {
		def := bits.MakePrefix(bits.Zero128, 0)
		if err := tbl.Insert(route(def, 7)); err != nil {
			t.Fatal(err)
		}
		for _, addr := range []bits.Word128{bits.Zero128, bits.Max128, bits.FromUint64(12345)} {
			if r, ok := tbl.Lookup(addr); !ok || r.Iface != 7 {
				t.Errorf("%v: default route missed for %v", tbl.Kind(), addr)
			}
		}
	}
}

func TestHostRoute(t *testing.T) {
	for _, tbl := range allKinds(t) {
		host := bits.MakePrefix(bits.FromWords(1, 2, 3, 4), 128)
		if err := tbl.Insert(route(host, 3)); err != nil {
			t.Fatal(err)
		}
		if r, ok := tbl.Lookup(bits.FromWords(1, 2, 3, 4)); !ok || r.Iface != 3 {
			t.Errorf("%v: host route missed", tbl.Kind())
		}
		if _, ok := tbl.Lookup(bits.FromWords(1, 2, 3, 5)); ok {
			t.Errorf("%v: host route over-matched", tbl.Kind())
		}
	}
}

func TestRoutesDeterministic(t *testing.T) {
	for _, tbl := range allKinds(t) {
		ps := []bits.Prefix{pfx(0x30000000, 0, 8), pfx(0x20010000, 0, 16), pfx(0x20010db8, 0, 32)}
		for i, p := range ps {
			if err := tbl.Insert(route(p, i)); err != nil {
				t.Fatal(err)
			}
		}
		rs := tbl.Routes()
		if len(rs) != 3 {
			t.Fatalf("%v: Routes len %d", tbl.Kind(), len(rs))
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].Prefix.Addr.Less(rs[i-1].Prefix.Addr) {
				t.Errorf("%v: Routes unsorted", tbl.Kind())
			}
		}
	}
}

// TestCrossImplementationEquivalence is the central property: every
// implementation must return the same longest-prefix-match answer as the
// sequential reference on randomized tables and probes, including after
// deletions.
func TestCrossImplementationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		tables := allKinds(t)
		ref := tables[0]
		n := 1 + rng.Intn(60)
		var prefixes []bits.Prefix
		for i := 0; i < n; i++ {
			ln := []int{0, 8, 16, 24, 32, 48, 64, 96, 128}[rng.Intn(9)]
			addr := bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()}
			p := bits.MakePrefix(addr, ln)
			prefixes = append(prefixes, p)
			r := Route{Prefix: p, Iface: i, Metric: 1 + rng.Intn(15)}
			for _, tbl := range tables {
				if err := tbl.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Delete a random subset from all tables.
		for _, p := range prefixes {
			if rng.Intn(4) == 0 {
				want := ref.Delete(p)
				for _, tbl := range tables[1:] {
					if got := tbl.Delete(p); got != want {
						t.Fatalf("%v: Delete(%v) = %v, want %v", tbl.Kind(), p, got, want)
					}
				}
			}
		}
		probe := func(addr bits.Word128) {
			t.Helper()
			wantR, wantOK := ref.Lookup(addr)
			for _, tbl := range tables[1:] {
				gotR, gotOK := tbl.Lookup(addr)
				if gotOK != wantOK {
					t.Fatalf("trial %d %v: Lookup(%v) ok=%v, want %v",
						trial, tbl.Kind(), addr, gotOK, wantOK)
				}
				if gotOK && gotR.Prefix != wantR.Prefix {
					t.Fatalf("trial %d %v: Lookup(%v) = %v, want %v",
						trial, tbl.Kind(), addr, gotR.Prefix, wantR.Prefix)
				}
			}
		}
		for k := 0; k < 50; k++ {
			probe(bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()})
		}
		// Probe prefix boundaries: the hardest cases.
		for _, p := range prefixes {
			probe(p.First())
			probe(p.Last())
			if p.Last() != bits.Max128 {
				probe(p.Last().AddOne())
			}
		}
	}
}

func TestTreeIsBalanced(t *testing.T) {
	tbl := NewBalancedTree()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p := bits.MakePrefix(bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()}, 48)
		if err := tbl.Insert(route(p, i)); err != nil {
			t.Fatal(err)
		}
	}
	nodes, root := tbl.Nodes()
	if root < 0 || len(nodes) == 0 {
		t.Fatal("empty tree after 100 inserts")
	}
	// A perfectly balanced tree over m nodes has depth ceil(log2(m+1)).
	m := len(nodes)
	want := 0
	for c := 1; c-1 < m; c *= 2 {
		want++
	}
	if d := tbl.Depth(); d != want {
		t.Errorf("depth = %d over %d nodes, want %d", d, m, want)
	}
}

func TestTreeProbesLogarithmic(t *testing.T) {
	tbl := NewBalancedTree()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		p := bits.MakePrefix(bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()}, 48)
		if err := tbl.Insert(route(p, i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.ResetStats()
	for i := 0; i < 1000; i++ {
		tbl.Lookup(bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()})
	}
	st := tbl.Stats()
	avg := float64(st.Probes) / float64(st.Lookups)
	if avg > 10 { // log2(~200 ranges) ≈ 7.6
		t.Errorf("average probes %.1f too high for balanced tree", avg)
	}
}

func TestSequentialProbesLinear(t *testing.T) {
	tbl := NewSequential()
	for i := 0; i < 100; i++ {
		p := bits.MakePrefix(bits.FromUint64(uint64(i)).Shl(64), 64)
		if err := tbl.Insert(route(p, i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.ResetStats()
	tbl.Lookup(bits.FromUint64(99).Shl(64))
	if st := tbl.Stats(); st.Probes != 100 {
		t.Errorf("sequential probes = %d, want 100", st.Probes)
	}
}

func TestCAMSingleProbe(t *testing.T) {
	tbl := NewCAM(DefaultCAMConfig())
	for i := 0; i < 100; i++ {
		p := bits.MakePrefix(bits.FromUint64(uint64(i)).Shl(64), 64)
		if err := tbl.Insert(route(p, i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.ResetStats()
	tbl.Lookup(bits.FromUint64(99).Shl(64))
	tbl.Lookup(bits.Max128)
	if st := tbl.Stats(); st.Probes != 2 || st.Lookups != 2 {
		t.Errorf("CAM stats = %+v, want 2 probes for 2 lookups", st)
	}
	if tbl.SearchNs() != 40 {
		t.Errorf("SearchNs = %v", tbl.SearchNs())
	}
}

func TestCAMCapacity(t *testing.T) {
	tbl := NewCAM(CAMConfig{SearchNs: 40, Capacity: 2, WidthBits: 136})
	if err := tbl.Insert(route(pfx(1, 0, 32), 0)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(route(pfx(2, 0, 32), 1)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(route(pfx(3, 0, 32), 2)); err == nil {
		t.Error("CAM overflow accepted")
	}
	// Replacing an existing entry must still work at capacity.
	if err := tbl.Insert(route(pfx(2, 0, 32), 5)); err != nil {
		t.Errorf("replace at capacity failed: %v", err)
	}
}

func TestEmptyTables(t *testing.T) {
	for _, tbl := range allKinds(t) {
		if _, ok := tbl.Lookup(bits.FromUint64(1)); ok {
			t.Errorf("%v: lookup in empty table hit", tbl.Kind())
		}
		if tbl.Len() != 0 || len(tbl.Routes()) != 0 {
			t.Errorf("%v: empty table non-empty", tbl.Kind())
		}
		if tbl.Delete(pfx(1, 0, 32)) {
			t.Errorf("%v: delete from empty table succeeded", tbl.Kind())
		}
	}
}

func TestStatsReset(t *testing.T) {
	for _, tbl := range allKinds(t) {
		if err := tbl.Insert(route(pfx(1, 0, 32), 0)); err != nil {
			t.Fatal(err)
		}
		tbl.Lookup(bits.FromUint64(1))
		tbl.ResetStats()
		if st := tbl.Stats(); st.Lookups != 0 || st.Probes != 0 {
			t.Errorf("%v: stats not reset: %+v", tbl.Kind(), st)
		}
	}
}

func TestSequentialStorageOrder(t *testing.T) {
	tbl := NewSequential()
	ps := []bits.Prefix{pfx(3, 0, 32), pfx(1, 0, 32), pfx(2, 0, 32)}
	for i, p := range ps {
		if err := tbl.Insert(route(p, i)); err != nil {
			t.Fatal(err)
		}
	}
	got := tbl.EntriesInStorageOrder()
	for i := range ps {
		if got[i].Prefix != ps[i] {
			t.Fatalf("storage order changed: %v", got)
		}
	}
}

// TestTreeUpdateCost documents the paper's "insertion and deletion
// become much more complex" for the balanced tree: updates rebuild the
// range set, so the probe-efficient structure pays on writes.
func TestTreeUpdateCost(t *testing.T) {
	seqT := NewSequential()
	treeT := NewBalancedTree()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		p := bits.MakePrefix(bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()}, 48)
		r := route(p, i%4)
		if err := seqT.Insert(r); err != nil {
			t.Fatal(err)
		}
		if err := treeT.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// The tree must still be correct after 200 incremental rebuilds.
	nodes, root := treeT.Nodes()
	if root < 0 || len(nodes) == 0 {
		t.Fatal("tree empty after inserts")
	}
	for trial := 0; trial < 200; trial++ {
		addr := bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()}
		a, aok := seqT.Lookup(addr)
		b, bok := treeT.Lookup(addr)
		if aok != bok || (aok && a.Prefix != b.Prefix) {
			t.Fatalf("divergence after update storm at %v", addr)
		}
	}
}

// SlabLens reports the length of the trie's node and route slabs: what
// must stop growing once the free lists hold a churn's worth of slots.
func (t *TrieTable) SlabLens() [2]int { return [2]int{len(t.nodes), len(t.routes)} }

// SlabCaps reports the capacity of the trie's node and route slabs.
func (t *TrieTable) SlabCaps() [2]int { return [2]int{cap(t.nodes), cap(t.routes)} }

// TrieNodeDump is one trie node without its slab indices: its depth,
// the branch bit taken into it (0 at the root) and its route, if any.
type TrieNodeDump struct {
	Depth int
	Bit   uint
	Route Route
	Held  bool
}

// DumpTrie lists the trie's nodes in preorder, child 0 first: a shape
// two tries share whatever order their slabs hold the nodes in.
func (t *TrieTable) DumpTrie(testing.TB) []TrieNodeDump {
	var out []TrieNodeDump
	var walk func(n int32, depth int, bit uint)
	walk = func(n int32, depth int, bit uint) {
		nd := t.nodes[n]
		d := TrieNodeDump{Depth: depth, Bit: bit, Held: nd.route != 0}
		if d.Held {
			d.Route = t.routes[nd.route]
		}
		out = append(out, d)
		for b, c := range nd.child {
			if c != 0 {
				walk(c, depth+1, uint(b))
			}
		}
	}
	walk(0, 0, 0)
	return out
}

// Tests for the large-table workload generators: determinism (the
// byte-identical-JSON acceptance criterion starts here), distribution
// sanity, and churn-stream validity.
package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"taco/internal/bits"
	"taco/internal/rtable"
)

func TestGenerateLargeRoutesDeterministic(t *testing.T) {
	spec := LargeTableSpec{Entries: 5000, Seed: 42}
	a := GenerateLargeRoutes(spec)
	b := GenerateLargeRoutes(spec)
	if len(a) != len(b) || len(a) != 5000 {
		t.Fatalf("lengths: %d vs %d, want 5000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("route %d differs between identical specs: %v vs %v", i, a[i], b[i])
		}
	}
	c := GenerateLargeRoutes(LargeTableSpec{Entries: 5000, Seed: 43})
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical tables")
	}
}

// TestGenerateLargeRoutesExactCount: the scaled evaluator's analytic
// rows take Entries for the route count without generating the set.
func TestGenerateLargeRoutesExactCount(t *testing.T) {
	for _, spec := range []LargeTableSpec{
		{Entries: 1, Seed: 1}, {Entries: 17, Seed: 2, Allocations: 1}, {Entries: 1000, Seed: 3, Ifaces: 2},
		{Entries: 4096, Seed: 2003}, {Entries: 30000, Seed: 11},
	} {
		if got := len(GenerateLargeRoutes(spec)); got != spec.Entries {
			t.Errorf("%+v: %d routes", spec, got)
		}
	}
}

func TestGenerateLargeRoutesShape(t *testing.T) {
	routes := GenerateLargeRoutes(LargeTableSpec{Entries: 20000, Seed: 7})
	seen := map[bits.Prefix]bool{}
	lengths := map[int]int{}
	for _, r := range routes {
		if seen[r.Prefix] {
			t.Fatalf("duplicate prefix %v", r.Prefix)
		}
		seen[r.Prefix] = true
		if r.Prefix != bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len) {
			t.Fatalf("non-canonical prefix %v", r.Prefix)
		}
		// 2000::/4 confinement keeps 3000::/4 a guaranteed miss for
		// SampleDests (2000::/3 alone would contain the miss region).
		if got := r.Prefix.Addr.Shr(124).Lo; got != 2 {
			t.Fatalf("prefix %v outside 2000::/4", r.Prefix)
		}
		if r.Metric < 1 || r.Metric > 15 {
			t.Fatalf("route metric %d out of range", r.Metric)
		}
		lengths[r.Prefix.Len]++
	}
	// /48 dominates any realistic BGP-derived IPv6 mix.
	for _, ln := range []int{32, 48, 64} {
		if lengths[ln] == 0 {
			t.Fatalf("no /%d prefixes in a 20k-route table", ln)
		}
	}
	if lengths[48] < lengths[64] {
		t.Fatalf("length mix unrealistic: %d /48s vs %d /64s", lengths[48], lengths[64])
	}
}

func TestSampleDestsHitAndMiss(t *testing.T) {
	routes := GenerateLargeRoutes(LargeTableSpec{Entries: 2000, Seed: 9})
	tbl := rtable.NewMultibit(rtable.DefaultMultibitConfig())
	if err := tbl.InsertAll(routes); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	dests := SampleDests(routes, n, 0.25, 9)
	if len(dests) != n {
		t.Fatalf("got %d dests, want %d", len(dests), n)
	}
	// Engineered misses live in 3000::/4 (guaranteed outside the
	// generated 2000::/3 table); engineered hits are inside an installed
	// prefix by construction. The partition must be exact; the miss
	// draw is Bernoulli(missRatio) per destination, so only bound it.
	misses := 0
	for _, d := range dests {
		_, ok := tbl.Lookup(d)
		if inMissRegion := d.Shr(124).Lo == 3; inMissRegion {
			misses++
			if ok {
				t.Fatalf("destination %v in the miss region matched a route", d)
			}
		} else if !ok {
			t.Fatalf("engineered hit %v missed the table", d)
		}
	}
	if misses < n/8 || misses > n/2 {
		t.Fatalf("got %d misses for ratio 0.25 over %d dests", misses, n)
	}
}

func TestGenerateChurnValidAgainstTable(t *testing.T) {
	routes := GenerateLargeRoutes(LargeTableSpec{Entries: 1000, Seed: 3})
	ops := GenerateChurn(routes, ChurnSpec{Ops: 600, Seed: 5, Ifaces: 4})
	if len(ops) != 600 {
		t.Fatalf("got %d ops, want 600", len(ops))
	}
	kinds := map[ChurnOpKind]int{}
	for _, op := range ops {
		kinds[op.Op]++
	}
	for _, k := range []ChurnOpKind{ChurnInsert, ChurnDelete, ChurnReplace} {
		if kinds[k] == 0 {
			t.Fatalf("churn stream has no %v ops: %v", k, kinds)
		}
	}

	// Replay on a real table: every delete and replace must hit a live
	// prefix (the generator tracks the live set), and the net count must
	// match the insert/delete balance.
	tbl := rtable.New(rtable.BalancedTree)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		t.Fatal(err)
	}
	deleted, err := ApplyChurn(tbl, ops)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != kinds[ChurnDelete] {
		t.Fatalf("ApplyChurn deleted %d, stream has %d deletes", deleted, kinds[ChurnDelete])
	}
	if got, want := tbl.Len(), len(routes)+kinds[ChurnInsert]-kinds[ChurnDelete]; got != want {
		t.Fatalf("table has %d entries after churn, want %d", got, want)
	}

	// Determinism.
	ops2 := GenerateChurn(routes, ChurnSpec{Ops: 600, Seed: 5, Ifaces: 4})
	for i := range ops {
		if ops[i] != ops2[i] {
			t.Fatalf("churn op %d differs between identical specs", i)
		}
	}
}

// digest is the FNV-64a of the words write puts, each little-endian.
func digest(write func(put func(uint64))) string {
	h := fnv.New64a()
	var buf [8]byte
	write(func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	})
	return fmt.Sprintf("%016x", h.Sum64())
}

// putRoute puts a route's prefix, next hop, interface, metric and tag.
func putRoute(put func(uint64), r rtable.Route) {
	put(r.Prefix.Addr.Hi)
	put(r.Prefix.Addr.Lo)
	put(uint64(r.Prefix.Len))
	put(r.NextHop.Hi)
	put(r.NextHop.Lo)
	put(uint64(r.Iface))
	put(uint64(r.Metric))
	put(uint64(r.Tag))
}

// routesDigest is the digest of a route list in order.
func routesDigest(rs []rtable.Route) string {
	return digest(func(put func(uint64)) {
		for _, r := range rs {
			putRoute(put, r)
		}
	})
}

// TestGenerateLargeRoutesGolden pins the generator's output in draw
// order: the RNG draw sequence is the contract every sweep, sample and
// churn stream is derived from, so a change to how the generator
// deduplicates must not move a single route.
func TestGenerateLargeRoutesGolden(t *testing.T) {
	for _, c := range []struct {
		spec LargeTableSpec
		want string
	}{
		{LargeTableSpec{Entries: 10000, Seed: 2003}, "ea99539a5944fdb7"},
		{LargeTableSpec{Entries: 100000, Seed: 2003}, "5985a84e52f3d28c"},
		{LargeTableSpec{Entries: 5000, Seed: 42}, "c6a7339b3a158a9a"},
		{LargeTableSpec{Entries: 17, Seed: 2, Allocations: 1}, "f649da62fc7f6d31"},
	} {
		if got := routesDigest(GenerateLargeRoutes(c.spec)); got != c.want {
			t.Errorf("%+v: digest %s, want %s", c.spec, got, c.want)
		}
	}
	// GenerateRoutes dedups through the same set.
	for _, c := range []struct {
		spec TableSpec
		want string
	}{
		{PaperTableSpec(), "e2b8f6bf3e68f06f"},
		{TableSpec{Entries: 20000, Seed: 7}, "4060e1a310f5453a"},
	} {
		if got := routesDigest(GenerateRoutes(c.spec)); got != c.want {
			t.Errorf("%+v: digest %s, want %s", c.spec, got, c.want)
		}
	}
}

// routesSink keeps benchmarked results live.
var routesSink []rtable.Route

// BenchmarkGenerateLargeRoutes times the large-table sweep's first
// input phase: drawing and deduplicating the route set.
func BenchmarkGenerateLargeRoutes(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				routesSink = GenerateLargeRoutes(LargeTableSpec{Entries: n, Seed: 2003})
			}
		})
	}
}

// churnDigest is the digest of an update stream in order: each op's
// kind, then its route.
func churnDigest(ops []ChurnOp) string {
	return digest(func(put func(uint64)) {
		for _, op := range ops {
			put(uint64(op.Op))
			putRoute(put, op.Route)
		}
	})
}

// TestGenerateChurnGolden pins the update streams in emit order: the
// rtable-churn bench stream, the one the rtable pin tests replay, and
// a small one. How the generator indexes its live set must not move
// one op. The streams keep the known 2000::/3 insert draw (see
// GenerateChurn).
func TestGenerateChurnGolden(t *testing.T) {
	for _, c := range []struct {
		entries, ops int
		seed         uint64
		want         string
	}{
		{100_000, 1 << 18, 2003, "f3bf5f0259527efb"},
		{10_000, 4000, 2003, "0a8b7117ed17d897"},
		{1000, 600, 5, "89c15c8a55872e41"},
	} {
		base := GenerateLargeRoutes(LargeTableSpec{Entries: c.entries, Seed: c.seed})
		ops := GenerateChurn(base, ChurnSpec{Ops: c.ops, Seed: c.seed})
		if len(ops) != c.ops {
			t.Errorf("%d routes, seed %d: %d ops, want %d", c.entries, c.seed, len(ops), c.ops)
		}
		if got := churnDigest(ops); got != c.want {
			t.Errorf("%d routes, %d ops, seed %d: digest %s, want %s", c.entries, c.ops, c.seed, got, c.want)
		}
	}
}

// TestGenerateChurnNoOps: a zero or negative op count is an empty
// stream, not a panic.
func TestGenerateChurnNoOps(t *testing.T) {
	base := GenerateLargeRoutes(LargeTableSpec{Entries: 100, Seed: 1})
	for _, n := range []int{0, -1, -5000} {
		if ops := GenerateChurn(base, ChurnSpec{Ops: n, Seed: 1}); len(ops) != 0 {
			t.Errorf("Ops %d: %d ops, want none", n, len(ops))
		}
	}
}

// TestPrefixSetMatchesMap drives the flat set and a map through the
// same random set and delete calls over a pool of 100 prefixes in 128
// slots, so probe runs are long and wrap, and requires the same answer
// for every pool prefix after each call.
func TestPrefixSetMatchesMap(t *testing.T) {
	pool := GenerateLargeRoutes(LargeTableSpec{Entries: 100, Seed: 4})
	s := newPrefixSet(64)
	prefixAt := func(i int) bits.Prefix { return pool[i].Prefix }
	m := map[bits.Prefix]int{}
	rng := NewRNG(8)
	for step := 0; step < 20000; step++ {
		k := rng.Intn(len(pool))
		p := pool[k].Prefix
		if rng.Intn(2) == 0 {
			s.set(p, k, prefixAt)
			m[p] = k
		} else {
			s.del(p, prefixAt)
			delete(m, p)
		}
		for i, r := range pool {
			slot, found := s.find(prefixHash(r.Prefix), r.Prefix, prefixAt)
			_, want := m[r.Prefix]
			if found != want || found && int(uint32(s.slots[slot]))-1 != i {
				t.Fatalf("step %d: %v found=%v, map has it=%v", step, r.Prefix, found, want)
			}
		}
	}
}

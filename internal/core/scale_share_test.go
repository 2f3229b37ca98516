// Tests for SweepCache: each shared input is computed once however many
// goroutines ask, analytic kinds generate nothing, and the shared slices
// survive every backend untouched.
package core

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"taco/internal/fu"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// TestCachedComputesOnce: goroutines racing for one key see a single
// compute, and the latecomers wait for its value.
func TestCachedComputesOnce(t *testing.T) {
	var c SweepCache
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := 0; key < 4; key++ {
				got := cached(&c, key, func() int {
					computes.Add(1)
					return key * 10
				})
				if got != key*10 {
					t.Errorf("key %d: got %d", key, got)
				}
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 4 {
		t.Fatalf("%d computes for 4 keys", n)
	}
}

// TestSweepCacheSharesPerSweep drives one cache the way dse's pool does
// — every kind × size from concurrent goroutines — and counts what it
// computed: one route set, churn stream and sample per size, one built
// table per (built kind, size) — the multibit and compressed rows share
// one stride-trie build — one anchor per (donor, anchor size) and one
// simulation input set per anchor size, shared by its three donors.
// Every result equals a stand-alone call. The route set is one array
// per size: the generated routes sorted in place, which every table is
// built from and the balanced tree borrows, read in draw order through
// its index.
func TestSweepCacheSharesPerSweep(t *testing.T) {
	sizes := []int{500, 2000}
	cons, sim := PaperConstraints(), DefaultSimOptions()
	sim.Packets = 16
	var c SweepCache
	var wg sync.WaitGroup
	for _, kind := range rtable.Kinds {
		for _, n := range sizes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				spec := ScaleSpec{Kind: kind, Entries: n, ChurnOps: 50}
				got, err := c.EvaluateScaled(fu.Config1Bus1FU(kind), spec, cons, sim)
				if err != nil {
					t.Errorf("%v/%d: %v", kind, n, err)
					return
				}
				want, err := EvaluateScaled(fu.Config1Bus1FU(kind), spec, cons, sim)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%d: shared %+v, stand-alone %+v (%v)", kind, n, got, want, err)
				}
			}()
		}
	}
	wg.Wait()

	counts := map[string]int{}
	strideBuilds := 0
	for key := range c.m {
		counts[reflect.TypeOf(key).Name()]++
		if mk, ok := key.(measureKey); ok && mk.built == rtable.Multibit {
			strideBuilds++
		}
	}
	want := map[string]int{
		"LargeTableSpec": len(sizes),
		"churnKey":       len(sizes),
		"destsKey":       len(sizes),
		"measureKey":     4 * len(sizes), // built as balanced-tree, trie, multibit, tiled-tcam
		"anchorKey":      3 * 2,          // donors sequential, balanced-tree, cam × two anchor sizes
		"inputsKey":      2,              // one per anchor size
	}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("cache computed %v, want %v", counts, want)
	}
	if strideBuilds != len(sizes) {
		t.Fatalf("%d stride-trie builds for %d sizes and one churn stream", strideBuilds, len(sizes))
	}
	for key, e := range c.m {
		if _, isSet := key.(workload.LargeTableSpec); !isSet && reflect.TypeOf(e.v).Kind() == reflect.Slice &&
			reflect.TypeOf(e.v).Elem() == reflect.TypeOf(rtable.Route{}) {
			t.Errorf("cache holds a second route array under %T", key)
		}
	}
	for _, n := range sizes {
		lt := workload.LargeTableSpec{Entries: n, Ifaces: sim.Ifaces, Seed: sim.Seed}
		set := c.routes(lt)
		if again := c.routes(lt); &again.sorted[0] != &set.sorted[0] {
			t.Fatal("route set regenerated instead of shared")
		}
		drawn := workload.GenerateLargeRoutes(lt)
		if !slices.Equal(set.sorted, rtable.SortedRoutes(drawn)) {
			t.Errorf("%d routes: the cached set is not in SortedRoutes order, so the tree would copy it", n)
		}
		for i, r := range drawn {
			if set.sorted[set.at[i]] != r {
				t.Fatalf("%d routes: draw %d reads %v through the index, generated %v", n, i, set.sorted[set.at[i]], r)
			}
		}
	}
}

// TestAnalyticKindsGenerateNothing: without churn the sequential and CAM
// rows need only the entry count, so they must not generate the route
// set — only their anchors and the anchors' simulation inputs — and the
// row must be what generating it would have given.
func TestAnalyticKindsGenerateNothing(t *testing.T) {
	const entries = 3000
	cons, sim := PaperConstraints(), DefaultSimOptions()
	routes := workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: entries, Ifaces: sim.Ifaces, Seed: sim.Seed})
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.CAM} {
		var c SweepCache
		m, err := c.EvaluateScaled(fu.Config1Bus1FU(kind), ScaleSpec{Kind: kind, Entries: entries}, cons, sim)
		if err != nil {
			t.Fatal(err)
		}
		for key := range c.m {
			switch key.(type) {
			case anchorKey, inputsKey:
			default:
				t.Errorf("%v: generated %T for an analytic row", kind, key)
			}
		}
		wantProbes := 1.0
		if kind == rtable.Sequential {
			wantProbes = float64(len(routes))
		}
		if m.TableEntries != len(routes) || m.AvgProbesPerPacket != wantProbes {
			t.Errorf("%v: entries %d probes %v, want %d and %v",
				kind, m.TableEntries, m.AvgProbesPerPacket, len(routes), wantProbes)
		}
	}
}

// TestSharedStrideMeasurement: a kind that prices another's structure
// (rtable.Backend.Reprice — the compressed trie reprices the multibit
// build) reads off the shared build the probe average, Len and MemDims
// a table of its own gives under the same route set, churn stream and
// sample, at 10³ and 10⁴ routes with and without churn.
func TestSharedStrideMeasurement(t *testing.T) {
	sim := DefaultSimOptions()
	repriced := 0
	for _, kind := range rtable.Kinds {
		built := kind.BuiltAs()
		if built == kind {
			continue
		}
		repriced++
		for _, n := range []int{1000, 10000} {
			for _, ops := range []int{0, 400} {
				var c SweepCache
				spec := ScaleSpec{Kind: kind, Entries: n, ChurnOps: ops, SampleLookups: DefaultSampleLookups}
				sibling := spec
				sibling.Kind = built
				if _, _, _, err := c.measureProbes(sibling, sim); err != nil {
					t.Fatal(err)
				}
				avg, dims, entries, err := c.measureProbes(spec, sim)
				if err != nil {
					t.Fatal(err)
				}

				lt := workload.LargeTableSpec{Entries: n, Ifaces: sim.Ifaces, Seed: sim.Seed}
				routes := workload.GenerateLargeRoutes(lt)
				own := rtable.New(kind)
				if err := rtable.InsertAll(own, rtable.SortedRoutes(routes)); err != nil {
					t.Fatal(err)
				}
				if ops > 0 {
					churn := workload.GenerateChurn(routes, workload.ChurnSpec{Ops: ops, Seed: sim.Seed, Ifaces: sim.Ifaces})
					if _, err := workload.ApplyChurn(own, churn); err != nil {
						t.Fatal(err)
					}
				}
				own.ResetStats()
				for _, dst := range workload.SampleDests(routes, DefaultSampleLookups, sim.MissRatio, sim.Seed) {
					own.Lookup(dst)
				}
				st := own.Stats()
				wantAvg := float64(st.Probes) / float64(st.Lookups)
				if avg != wantAvg || entries != own.Len() || !reflect.DeepEqual(dims, own.MemDims()) {
					t.Errorf("%v at %d routes, churn %d: shared build gives probes %v, Len %d, %+v; own table %v, %d, %+v",
						kind, n, ops, avg, entries, dims, wantAvg, own.Len(), own.MemDims())
				}
				builds := 0
				for key := range c.m {
					if _, ok := key.(measureKey); ok {
						builds++
					}
				}
				if builds != 1 {
					t.Errorf("%v at %d routes, churn %d: %d builds for two kinds of one structure", kind, n, ops, builds)
				}
			}
		}
	}
	if repriced == 0 {
		t.Fatal("no backend reprices another's build")
	}
}

func hashRoutes(rs []rtable.Route) uint64 {
	h := fnv.New64a()
	for _, r := range rs {
		for _, v := range []uint64{r.Prefix.Addr.Hi, r.Prefix.Addr.Lo, uint64(r.Prefix.Len),
			r.NextHop.Hi, r.NextHop.Lo, uint64(r.Iface), uint64(r.Metric), uint64(r.Tag)} {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	return h.Sum64()
}

// hashDatagrams hashes the seq and bytes of the arrivals and of the
// reference outcomes of one input set.
func hashDatagrams(as []router.Arrival, want router.Outcomes) uint64 {
	h := fnv.New64a()
	put := func(seq int64, data []byte) {
		binary.Write(h, binary.LittleEndian, seq)
		binary.Write(h, binary.LittleEndian, uint64(len(data)))
		h.Write(data)
	}
	for _, a := range as {
		put(a.Seq, a.Data)
	}
	for _, o := range want.Datagrams {
		put(o.Seq, o.Data)
	}
	return h.Sum64()
}

// TestSharedInputsReadOnly pins the contract sharing rests on: no
// backend's InsertAll, and no churn replay, writes to the slices it is
// handed — neither the generator-order set nor the sorted copy the
// tables are built from (the balanced tree keeps the sorted copy and
// reads it in place, but clones it at its first point update, so the
// splice writes its own array). Nor does a simulation
// write to the routes, the datagram bytes it is fed or the reference
// outcomes it is checked against: all nine Table 1 cells evaluated from
// one SweepCache, recorder armed, leave the one input set they share as
// they found it.
func TestSharedInputsReadOnly(t *testing.T) {
	routes := workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: 4000, Ifaces: 4, Seed: 2003})
	sorted := rtable.SortedRoutes(routes)
	churn := workload.GenerateChurn(routes, workload.ChurnSpec{Ops: 300, Seed: 2003, Ifaces: 4})
	churnRoutes := func() []rtable.Route {
		rs := make([]rtable.Route, len(churn))
		for i, op := range churn {
			rs[i] = op.Route
		}
		return rs
	}
	wantRoutes, wantSorted, wantChurn := hashRoutes(routes), hashRoutes(sorted), hashRoutes(churnRoutes())
	for _, kind := range rtable.Kinds {
		for _, input := range [][]rtable.Route{routes, sorted} {
			tbl := rtable.New(kind)
			if err := rtable.InsertAll(tbl, input); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if _, err := workload.ApplyChurn(tbl, churn); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if hashRoutes(routes) != wantRoutes || hashRoutes(sorted) != wantSorted ||
				hashRoutes(churnRoutes()) != wantChurn {
				t.Fatalf("%v mutated its shared input", kind)
			}
		}
	}

	cons, sim := PaperConstraints(), DefaultSimOptions()
	sim.Packets = 32
	sim.ForensicsDir = t.TempDir()
	var c SweepCache
	in := c.inputs(cons, sim)
	if in.err != nil {
		t.Fatal(in.err)
	}
	wantRoutes, wantPkts := hashRoutes(in.routes), hashDatagrams(in.arrivals, in.want)
	for _, kind := range rtable.PaperKinds {
		for _, cfg := range fu.PaperConfigs(kind) {
			if _, err := c.Evaluate(cfg, cons, sim); err != nil {
				t.Fatalf("%v/%s: %v", kind, cfg.Name, err)
			}
		}
	}
	if again := c.inputs(cons, sim); &again.routes[0] != &in.routes[0] || &again.arrivals[0] != &in.arrivals[0] {
		t.Fatal("Table 1 cells regenerated their inputs instead of sharing one set")
	}
	if hashRoutes(in.routes) != wantRoutes || hashDatagrams(in.arrivals, in.want) != wantPkts {
		t.Fatal("a Table 1 evaluation mutated the shared routes, datagrams or reference outcomes")
	}
}

// Host-speed lookup benchmarks across the kind × size grid of the
// scaling study: BenchmarkLookup/{kind}/{size} for 1k, 100k and 1M
// routes. These are software-table numbers (the probe-count side of the
// scaled cycle model), not TACO cycle counts — the cycle side is locked
// by the root package's bench_snapshot guard.
package rtable_test

import (
	"fmt"
	"sync"
	"testing"

	"taco/internal/bits"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// benchDB caches generated route sets and sampled destinations per
// size: generating a million routes once instead of once per kind.
var benchDB struct {
	sync.Mutex
	routes map[int][]rtable.Route
	dests  map[int][]bits.Word128
}

func benchWorkloadFor(b *testing.B, size int) ([]rtable.Route, []bits.Word128) {
	b.Helper()
	benchDB.Lock()
	defer benchDB.Unlock()
	if benchDB.routes == nil {
		benchDB.routes = map[int][]rtable.Route{}
		benchDB.dests = map[int][]bits.Word128{}
	}
	if _, ok := benchDB.routes[size]; !ok {
		rs := workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: size, Seed: 2003})
		benchDB.routes[size] = rs
		benchDB.dests[size] = workload.SampleDests(rs, 1024, 0.05, 2003)
	}
	return benchDB.routes[size], benchDB.dests[size]
}

func BenchmarkLookup(b *testing.B) {
	for _, size := range []int{1000, 100000, 1000000} {
		for _, kind := range rtable.Kinds {
			kind, size := kind, size
			b.Run(fmt.Sprintf("%s/%d", kind, size), func(b *testing.B) {
				if kind == rtable.CAM && size > rtable.DefaultCAMConfig().Capacity {
					b.Skipf("CAM capacity is %d entries", rtable.DefaultCAMConfig().Capacity)
				}
				if kind == rtable.Trie && size > 100000 {
					b.Skip("one node per prefix bit: the binary trie at 1M routes exceeds the host-memory budget")
				}
				if kind == rtable.Sequential && size > 100000 {
					b.Skip("O(n) scan per lookup: ~1M probes per op tells us nothing new over 100k")
				}
				routes, dests := benchWorkloadFor(b, size)
				tbl := rtable.New(kind)
				if err := rtable.InsertAll(tbl, routes); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tbl.Lookup(dests[i%len(dests)])
				}
				b.StopTimer()
				st := tbl.Stats()
				if st.Lookups > 0 {
					b.ReportMetric(float64(st.Probes)/float64(st.Lookups), "probes/op")
				}
			})
		}
	}
}

// BenchmarkBuild measures the table-construction side of the grid: the
// bulk-load path the scaled evaluator and a control-plane full-table
// transfer both use.
func BenchmarkBuild(b *testing.B) {
	for _, size := range []int{1000, 100000} {
		for _, kind := range rtable.Kinds {
			kind, size := kind, size
			b.Run(fmt.Sprintf("%s/%d", kind, size), func(b *testing.B) {
				if kind == rtable.CAM && size > rtable.DefaultCAMConfig().Capacity {
					b.Skipf("CAM capacity is %d entries", rtable.DefaultCAMConfig().Capacity)
				}
				routes, _ := benchWorkloadFor(b, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tbl := rtable.New(kind)
					if err := rtable.InsertAll(tbl, routes); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// sortedSink keeps benchmarked results live.
var sortedSink []rtable.Route

// BenchmarkSortedRoutes measures the input phase every built table of
// a large-table sweep shares: one sort of the generated set.
func BenchmarkSortedRoutes(b *testing.B) {
	for _, size := range []int{10000, 100000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			routes, _ := benchWorkloadFor(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sortedSink = rtable.SortedRoutes(routes)
			}
		})
	}
}

// Benchmark harness: one benchmark per table and figure of the paper,
// plus the extension ablations. Each Table 1 benchmark simulates the
// forwarding workload on the cycle-accurate machine and reports the
// derived paper metrics (cycles/packet and the required clock for
// 10 Gbps) alongside Go's own timings, so `go test -bench .` regenerates
// the evaluation and EXPERIMENTS.md can quote its output.
package taco_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"taco/internal/core"
	"taco/internal/dse"
	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/program"
	"taco/internal/ripng"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// benchWorkload builds the standard 100-entry / 512-byte workload.
func benchWorkload(b testing.TB, kind rtable.Kind, entries, packets int) (rtable.Table, []workload.Packet) {
	b.Helper()
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: entries, Ifaces: 4, Seed: 2003})
	tbl := rtable.New(kind)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		b.Fatal(err)
	}
	spec := workload.PaperTrafficSpec(packets)
	spec.MissRatio = 0.05
	pkts, err := workload.GenerateTraffic(routes, spec)
	if err != nil {
		b.Fatal(err)
	}
	return tbl, pkts
}

// runForwarding simulates one batch per iteration on a single router
// instance — Reset between batches, never rebuilt — and reports the
// Table 1 metrics.
func runForwarding(b *testing.B, kind rtable.Kind, cfg fu.Config, entries int) {
	runForwardingMode(b, kind, cfg, entries, false, nil)
}

// runForwardingMode is runForwarding on either step path, with arm (when
// non-nil) attaching observers to the router before the timed loop.
func runForwardingMode(b *testing.B, kind rtable.Kind, cfg fu.Config, entries int, compiled bool, arm func(*router.TACO)) {
	b.Helper()
	const packets = 32
	tbl, pkts := benchWorkload(b, kind, entries, packets)
	tr, err := router.NewTACO(cfg, tbl, 4)
	if err != nil {
		b.Fatal(err)
	}
	if arm != nil {
		arm(tr)
	}
	if compiled {
		if err := tr.UseCompiled(); err != nil {
			b.Fatal(err)
		}
	}
	var cyclesPerPacket float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		for j, p := range pkts {
			tr.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq})
		}
		if err := tr.Run(int64(len(pkts)), int64(packets)*int64(entries+64)*64); err != nil {
			b.Fatal(err)
		}
		cyclesPerPacket = tr.CyclesPerPacket()
	}
	b.StopTimer()
	rate := core.PaperConstraints().PacketRate()
	b.ReportMetric(cyclesPerPacket, "cycles/packet")
	b.ReportMetric(cyclesPerPacket*rate/1e6, "reqMHz")
	b.ReportMetric(tr.Machine.Stats().BusUtilization()*100, "busUtil%")
}

// BenchmarkTable1 regenerates every row of the paper's Table 1.
func BenchmarkTable1(b *testing.B) {
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, cfg := range fu.PaperConfigs(kind) {
			cfg := cfg
			b.Run(fmt.Sprintf("%s/%s", kind, cfg.Name), func(b *testing.B) {
				runForwarding(b, kind, cfg, 100)
			})
		}
	}
}

// BenchmarkTable1Compiled is BenchmarkTable1 through the compiled fast
// path; the cycles/packet metrics it reports must match BenchmarkTable1
// exactly (pinned by TestCompiledVsInterpreted and the snapshot guard).
func BenchmarkTable1Compiled(b *testing.B) {
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, cfg := range fu.PaperConfigs(kind) {
			cfg := cfg
			b.Run(fmt.Sprintf("%s/%s", kind, cfg.Name), func(b *testing.B) {
				runForwardingMode(b, kind, cfg, 100, true, nil)
			})
		}
	}
}

// BenchmarkSweepParallel measures the design-space exploration engine's
// wall-clock at workers=1 versus workers=GOMAXPROCS over the nine
// Table 1 instances — the tentpole speed-up; the determinism tests in
// internal/dse pin the outputs to be identical.
func BenchmarkSweepParallel(b *testing.B) {
	cons := core.PaperConstraints()
	sim := core.DefaultSimOptions()
	sim.Packets = 32
	// The interpreter, as when bench_snapshot.txt recorded this line.
	sim.Compiled = false
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dse.Table1(context.Background(), cons, sim, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSteadyStateAllocs asserts the reset-per-batch simulate loop stays
// allocation-free apart from per-datagram payload copies: the seed's
// build-per-batch loop allocated ~7,470 objects per 32-packet batch on
// sequential/1BUS/1FU; the reset path must hold a ~100× lower budget
// (≲ 4 allocations per packet covers the transmitted payload slices
// with headroom, and any structural-rebuild regression blows it
// immediately).
func TestSteadyStateAllocs(t *testing.T) {
	const packets = 32
	kind := rtable.Sequential
	cfg := fu.Config1Bus1FU(kind)
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 100, Ifaces: 4, Seed: 2003})
	tbl := rtable.New(kind)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		t.Fatal(err)
	}
	spec := workload.PaperTrafficSpec(packets)
	spec.MissRatio = 0.05
	pkts, err := workload.GenerateTraffic(routes, spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := router.NewTACO(cfg, tbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	batch := func() {
		tr.Reset()
		for j, p := range pkts {
			tr.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq})
		}
		if err := tr.Run(packets, 20_000_000); err != nil {
			t.Fatal(err)
		}
	}
	batch() // warm up scratch capacity
	avg := testing.AllocsPerRun(10, batch)
	if max := float64(4 * packets); avg > max {
		t.Errorf("steady-state simulate loop: %.0f allocs per %d-packet batch, want <= %.0f",
			avg, packets, max)
	}
}

// BenchmarkFigure3Optimization measures the paper's Figure 3 pipeline:
// generating, optimizing and scheduling the expression example, and
// reports the move reduction.
func BenchmarkFigure3Optimization(b *testing.B) {
	m, err := fu.NewComputeMachine(fu.Config3Bus1FU(0))
	if err != nil {
		b.Fatal(err)
	}
	var f3 *program.Figure3Result
	for i := 0; i < b.N; i++ {
		f3, err = program.Figure3(m, 5, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f3.MovesNonOpt), "movesIn")
	b.ReportMetric(float64(f3.MovesOpt), "movesOut")
	b.ReportMetric(float64(f3.CyclesOpt), "cycles")
}

// BenchmarkTableSizeSweep is the extension ablation behind the paper's
// linear-vs-logarithmic search discussion: cycles/packet across table
// sizes for each implementation (Figure-style series).
func BenchmarkTableSizeSweep(b *testing.B) {
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, entries := range []int{10, 100, 1000} {
			kind, entries := kind, entries
			b.Run(fmt.Sprintf("%s/%d", kind, entries), func(b *testing.B) {
				runForwarding(b, kind, fu.Config3Bus1FU(kind), entries)
			})
		}
	}
}

// BenchmarkLookupGo measures the routing-table implementations as plain
// Go data structures (the software baseline behind the hardware model),
// including the trie that has no TACO unit.
func BenchmarkLookupGo(b *testing.B) {
	for _, kind := range rtable.Kinds {
		for _, entries := range []int{100, 10000} {
			kind, entries := kind, entries
			b.Run(fmt.Sprintf("%s/%d", kind, entries), func(b *testing.B) {
				routes := workload.GenerateRoutes(workload.TableSpec{Entries: entries, Ifaces: 4, Seed: 5})
				tbl := rtable.New(kind)
				if kind == rtable.CAM && entries > 7000 {
					b.Skip("beyond CAM capacity")
				}
				if err := rtable.InsertAll(tbl, routes); err != nil {
					b.Fatal(err)
				}
				rng := workload.NewRNG(99)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := routes[i%len(routes)]
					tbl.Lookup(workload.AddrInPrefix(rng, r.Prefix))
				}
			})
		}
	}
}

// BenchmarkISS measures raw simulator speed in machine cycles per
// second of host time.
func BenchmarkISS(b *testing.B) {
	benchISS(b, false)
}

// BenchmarkISSCompiled is BenchmarkISS through the compiled fast path.
func BenchmarkISSCompiled(b *testing.B) {
	benchISS(b, true)
}

func benchISS(b *testing.B, compiled bool) {
	tbl, pkts := benchWorkload(b, rtable.Sequential, 100, 16)
	tr, err := router.NewTACO(fu.Config3Bus1FU(rtable.Sequential), tbl, 4)
	if err != nil {
		b.Fatal(err)
	}
	if compiled {
		if err := tr.UseCompiled(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		tr.Reset()
		for j, p := range pkts {
			tr.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq})
		}
		if err := tr.Run(int64(len(pkts)), 100_000_000); err != nil {
			b.Fatal(err)
		}
		cycles = tr.Machine.Stats().Cycles
	}
	b.ReportMetric(float64(cycles), "machineCycles/op")
}

// BenchmarkScheduler measures the optimize+schedule pipeline on the
// full forwarding program.
func BenchmarkScheduler(b *testing.B) {
	cfg := fu.Config3Bus3FU(rtable.Sequential)
	tbl := rtable.NewSequential()
	bank := linecard.NewBank(5)
	m, _, err := fu.NewRouterMachine(cfg, tbl, bank)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := program.Forwarding(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRIPngProcessing measures the protocol engine on full-table
// updates.
func BenchmarkRIPngProcessing(b *testing.B) {
	tbl := rtable.NewSequential()
	e := ripng.NewEngine(tbl, []ripng.Iface{{LinkLocal: workload.GenerateRoutes(workload.TableSpec{Entries: 1, Seed: 1})[0].NextHop, Cost: 1}}, 0)
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 70, Ifaces: 1, Seed: 3})
	var rtes []ripng.RTE
	for _, r := range routes {
		rtes = append(rtes, ripng.RTE{Prefix: r.Prefix, Metric: 1})
	}
	pkt := ripng.Packet{Command: ripng.CommandResponse, RTEs: rtes}
	src := workload.GenerateRoutes(workload.TableSpec{Entries: 1, Seed: 9})[0].NextHop
	src.Hi = 0xfe80000000000000 // force link-local
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Receive(0, src, pkt); err != nil {
			b.Fatal(err)
		}
	}
}

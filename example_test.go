package taco_test

import (
	"fmt"
	"log"

	"taco/internal/asm"
	"taco/internal/core"
	"taco/internal/estimate"
	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/linecard"
	"taco/internal/program"
	"taco/internal/ripng"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// The paper's Figure 3 expression a = (b*2 + c)/4 on a 3-bus TACO
// machine, register-staged and TTA-optimized, then one architecture
// instance evaluated against the paper's constraints: 10 Gbps, a
// 100-entry routing table, 0.18 µm.
func Example_quickstart() {
	cfg := fu.Config3Bus1FU(rtable.BalancedTree)
	m, err := fu.NewComputeMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	f3, err := program.Figure3(m, 5, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 3: %d moves non-optimized, %d moves TTA-optimized\n", f3.MovesNonOpt, f3.MovesOpt)
	fmt.Print(asm.Disassemble(f3.Optimized, m))
	var mmu *fu.MMU
	for _, u := range m.Units() {
		if mm, ok := u.(*fu.MMU); ok {
			mmu = mm
		}
	}
	a, err := program.RunFigure3(m, f3.Optimized, mmu.Peek)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("a = (5*2 + 6)/4 = %d in %d cycles\n", a, m.Stats().Cycles)

	met, err := core.Evaluate(cfg, core.PaperConstraints(), core.DefaultSimOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("balanced-tree router on %s: %.1f cycles/datagram, required clock %s, %.1f mm², %.2f W, acceptable %v\n",
		cfg.Name, met.CyclesPerPacket, estimate.FormatHz(met.RequiredClockHz), met.Est.AreaMM2, met.Est.PowerW, met.Acceptable())
	// Output:
	// Figure 3: 15 moves non-optimized, 8 moves TTA-optimized
	//     #5 -> shf0.tmul2, #6 -> cnt0.o
	//     shf0.r -> cnt0.tadd, #2 -> shf0.amt
	//     cnt0.r -> shf0.tr
	//     shf0.r -> mmu.ow, #16 -> mmu.tw, #0 -> nc.halt
	// a = (5*2 + 6)/4 = 4 in 4 cycles
	// balanced-tree router on 3BUS/1FU: 72.0 cycles/datagram, required clock 176 MHz, 10.4 mm², 0.31 W, acceptable true
}

// The paper's Figure 1 system: a TACO processor between four line
// cards forwards 300 mixed datagrams (table hits, misses, exhausted hop
// limits), and the golden software router must agree on every
// datagram's fate and output bytes and on every card's drop counts.
func Example_ipv6router() {
	const ifaces = 4
	routes := workload.GenerateRoutes(workload.PaperTableSpec())
	spec := workload.PaperTrafficSpec(300)
	spec.MissRatio, spec.HopLimitOneRatio = 0.10, 0.05
	pkts, err := workload.GenerateTraffic(routes, spec)
	if err != nil {
		log.Fatal(err)
	}
	tbl := rtable.New(rtable.BalancedTree)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		log.Fatal(err)
	}
	tr, err := router.NewTACO(fu.Config3Bus1FU(rtable.BalancedTree), tbl, ifaces)
	if err != nil {
		log.Fatal(err)
	}
	tr.EnableDropAudit()
	arrivals := router.RoundRobin(pkts, ifaces)
	g := router.NewGolden(tbl, ifaces)
	run, err := tr.RunChecked(arrivals, g.Expected(arrivals), 50_000_000, nil)
	if err != nil {
		log.Fatal(err)
	}
	st := tr.Machine.Stats()
	fmt.Printf("forwarded %d datagrams in %d cycles (%.1f cycles/datagram, %.0f%% bus utilization)\n",
		len(pkts), st.Cycles, tr.CyclesPerPacket(), st.BusUtilization()*100)
	fmt.Printf("required clock for 10 Gbps at 512 B: %s\n",
		estimate.FormatHz(tr.CyclesPerPacket()*core.PaperConstraints().PacketRate()))
	fmt.Printf("golden cross-check agrees: %v\n", run.Agree())
	gs := g.Stats()
	fmt.Printf("golden stats: %d forwarded, %d local, %d dropped\n", gs.Forwarded, gs.LocalDelivered, gs.Dropped)
	// Output:
	// forwarded 300 datagrams in 20910 cycles (69.7 cycles/datagram, 56% bus utilization)
	// required clock for 10 Gbps at 512 B: 170 MHz
	// golden cross-check agrees: true
	// golden stats: 256 forwarded, 0 local, 44 dropped
}

// Three routers in a line, A — B — C. B is a TACO router whose
// forwarding program hands RIPng multicast to its control plane through
// the local queue; A and C are protocol engines with one stub network
// each. The network converges, then the B—C link fails and B withdraws
// C's network after the route timeout.
func Example_ripng() {
	tblB := rtable.New(rtable.CAM)
	trB, err := router.NewTACO(fu.Config3Bus1FU(rtable.CAM), tblB, 2)
	if err != nil {
		log.Fatal(err)
	}
	llA, llC := ipv6.MustParseAddr("fe80::a0"), ipv6.MustParseAddr("fe80::c0")
	host := router.NewHost(trB, ripng.NewEngine(tblB, []ripng.Iface{
		{LinkLocal: ipv6.MustParseAddr("fe80::b0"), Cost: 1},
		{LinkLocal: ipv6.MustParseAddr("fe80::b1"), Cost: 1},
	}, 0))
	host.NeighborIface[llA], host.NeighborIface[llC] = 0, 1
	peers := []*ripng.Engine{ // B's neighbours, indexed by B's interface
		ripng.NewEngine(rtable.New(rtable.Sequential), []ripng.Iface{{LinkLocal: llA, Cost: 1}}, 0),
		ripng.NewEngine(rtable.New(rtable.Sequential), []ripng.Iface{{LinkLocal: llC, Cost: 1}}, 0),
	}
	for i, net := range []string{"2001:db8:a::/48", "2001:db8:c::/48"} {
		if err := peers[i].AddDirect(ipv6.MustParsePrefix(net), 0); err != nil {
			log.Fatal(err)
		}
	}
	linkUp := []bool{true, true}
	delivered := int64(0)
	// exchange advances every clock to now and carries RIPng datagrams
	// across both links. A's and C's updates enter B through its data
	// path, as line-card datagrams its program classifies as local.
	exchange := func(now ripng.Clock) {
		for _, e := range peers {
			e.Tick(now)
		}
		if err := host.Tick(now); err != nil {
			log.Fatal(err)
		}
		for i, e := range peers {
			for _, op := range e.Collect() {
				if !linkUp[i] {
					continue
				}
				base, err := ripng.WrapUDP(nil, e.LinkLocal(0), op.Dst, op.Pkt)
				if err != nil {
					log.Fatal(err)
				}
				d := ripng.DeriveUDP(nil, base, e.LinkLocal(0), op, 0)
				trB.Deliver(i, linecard.Datagram{Data: d, Seq: -1})
				delivered++
			}
		}
		if err := trB.Run(delivered, 10_000_000); err != nil {
			log.Fatal(err)
		}
		if err := host.PumpLocal(); err != nil {
			log.Fatal(err)
		}
		for i, e := range peers {
			for _, d := range trB.Outputs(i) {
				if src, pkt, err := ripng.UnwrapUDP(nil, d.Data); err == nil && linkUp[i] {
					if err := e.Receive(0, src, pkt); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
	}
	dump := func(name string, tbl rtable.Table) {
		fmt.Printf("%s:\n", name)
		for _, r := range tbl.Routes() {
			fmt.Printf("  %-18s -> if%d metric %d\n", ipv6.FormatPrefix(r.Prefix), r.Iface, r.Metric)
		}
	}

	for s := ripng.Clock(30); s <= 120; s += 30 {
		exchange(s)
	}
	dump("A", peers[0].Table())
	dump("B (TACO, via its data path)", tblB)
	dump("C", peers[1].Table())
	linkUp[1] = false
	for s := ripng.Clock(150); s <= 600; s += 30 {
		exchange(s)
	}
	dump("B after the B—C link failed", tblB)
	dump("A after B's poisoned update", peers[0].Table())
	// Output:
	// A:
	//   2001:db8:a::/48    -> if0 metric 1
	//   2001:db8:c::/48    -> if0 metric 3
	// B (TACO, via its data path):
	//   2001:db8:a::/48    -> if0 metric 2
	//   2001:db8:c::/48    -> if1 metric 2
	// C:
	//   2001:db8:a::/48    -> if0 metric 3
	//   2001:db8:c::/48    -> if0 metric 1
	// B after the B—C link failed:
	//   2001:db8:a::/48    -> if0 metric 2
	// A after B's poisoned update:
	//   2001:db8:a::/48    -> if0 metric 1
}

// The multibit trie of the large-table study at 100 000 generated
// routes: storage by memory region, trie depth and the probes each
// level takes over 4096 sampled lookups.
func Example_multibit() {
	routes := workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: 100_000, Seed: 2003})
	tbl := rtable.NewMultibit(rtable.DefaultMultibitConfig())
	if err := tbl.InsertAll(routes); err != nil {
		log.Fatal(err)
	}
	for _, dst := range workload.SampleDests(routes, 4096, 0.05, 2003) {
		tbl.Lookup(dst)
	}
	fmt.Printf("%d routes, strides %v, depth %d\n", tbl.Len(), rtable.DefaultMultibitStrides, tbl.Depth())
	for _, r := range tbl.MemDims().Regions {
		fmt.Printf("  %-8s %8d × %3d bit\n", r.Name, r.Records, r.Bits)
	}
	for lvl, n := range tbl.LevelProbes() {
		if n > 0 {
			fmt.Printf("  level %d: %5d probes\n", lvl, n)
		}
	}
	// Output:
	// 100000 routes, strides [16 8 8 8 8 8 8 8 8 8 8 8 8 8 8], depth 6
	//   slots     4601600 ×  48 bit
	//   leaves      70987 × 192 bit
	//   results    100000 × 160 bit
	//   level 0:  4096 probes
	//   level 1:  3898 probes
	//   level 2:  3762 probes
	//   level 3:  3406 probes
	//   level 4:  2584 probes
	//   level 5:     6 probes
}

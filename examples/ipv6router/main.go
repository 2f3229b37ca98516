// ipv6router runs the paper's Figure 1 system: a TACO protocol
// processor between four line cards, forwarding a 10 Gbps-style IPv6
// workload (table hits, misses, exhausted hop limits, traffic for the
// router itself), and cross-checks every datagram's fate and output
// bytes against the golden software router.
package main

import (
	"fmt"
	"log"

	"taco"
	"taco/internal/ipv6"
	"taco/internal/router"
	"taco/internal/rtable"
)

const ifaces = 4

func main() {
	// A 100-entry routing table and 300 datagrams of mixed traffic.
	routes := taco.GenerateRoutes(taco.PaperTableSpec())
	spec := taco.PaperTrafficSpec(300)
	spec.MissRatio = 0.10
	spec.HopLimitOneRatio = 0.05
	pkts, err := taco.GenerateTraffic(routes, spec)
	if err != nil {
		log.Fatal(err)
	}

	// The TACO router: balanced-tree table on the 3-bus instance.
	kind := taco.BalancedTree
	cfg := taco.Config3Bus1FU(kind)
	tbl := taco.NewTable(kind)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		log.Fatal(err)
	}
	tr, err := taco.NewRouter(cfg, tbl, ifaces)
	if err != nil {
		log.Fatal(err)
	}
	tr.AddLocal(ipv6.MustParseAddr("2001:db8:cafe::1"))
	tr.EnableDropAudit() // name every drop the program performs, per card

	arrivals := router.RoundRobin(pkts, ifaces)
	if n := tr.DeliverAll(arrivals); n != int64(len(arrivals)) {
		log.Fatalf("line cards accepted %d of %d datagrams", n, len(arrivals))
	}
	if err := tr.Run(int64(len(arrivals)), 50_000_000); err != nil {
		log.Fatal(err)
	}

	st := tr.Machine.Stats()
	fmt.Printf("forwarded %d datagrams in %d cycles (%.1f cycles/datagram, %.0f%% bus utilization)\n",
		len(pkts), st.Cycles, tr.CyclesPerPacket(), st.BusUtilization()*100)
	fmt.Printf("required clock for 10 Gbps at 512 B: %s\n",
		taco.FormatHz(tr.CyclesPerPacket()*taco.PaperConstraints().PacketRate()))
	if lat := tr.Latency(); lat.Count > 0 {
		fmt.Printf("store-to-transmit latency: min %d, mean %.0f, max %d cycles\n\n",
			lat.MinCycles, lat.MeanCycles, lat.MaxCycles)
	} else {
		fmt.Println()
	}

	// Golden cross-check: the reference router over the same table must
	// agree on every datagram's fate and output bytes, and on every
	// card's drop counts.
	got := tr.Collect(arrivals)
	g := taco.NewGoldenRouter(tbl, ifaces)
	g.AddLocal(ipv6.MustParseAddr("2001:db8:cafe::1"))
	diff := router.Compare(g.Expected(arrivals), got)
	bytesOut := make([]int, ifaces)
	for _, o := range got.Datagrams {
		if o.Action == router.Forward {
			bytesOut[o.Iface] += len(o.Data)
		}
	}
	for i, n := range bytesOut {
		fmt.Printf("interface %d: %6d bytes out\n", i, n)
	}
	if diff.Agree() {
		fmt.Println("golden cross-check: OK")
	} else {
		fmt.Printf("golden cross-check: MISMATCH on seqs %v, drop counters of cards %v\n", diff.Seqs, diff.Cards)
	}
	gs := g.Stats()
	fmt.Printf("\ngolden stats: %d forwarded, %d local, %d dropped\n",
		gs.Forwarded, gs.LocalDelivered, gs.Dropped)
}

// ipv6router runs the paper's Figure 1 system: a TACO protocol
// processor between four line cards, forwarding a 10 Gbps-style IPv6
// workload (table hits, misses, exhausted hop limits, traffic for the
// router itself), and cross-checks every output datagram against the
// golden software router.
package main

import (
	"bytes"
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

	for i, p := range pkts {
		if !tr.Deliver(i%ifaces, taco.Datagram{Data: p.Data, Seq: p.Seq}) {
			log.Fatalf("line card overflow at packet %d", i)
		}
	}
	if err := tr.Run(int64(len(pkts)), 50_000_000); err != nil {
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

	// Golden cross-check, replaying in the preprocessing unit's
	// consumption order (lowest card first).
	gtbl := taco.NewTable(kind)
	if err := rtable.InsertAll(gtbl, routes); err != nil {
		log.Fatal(err)
	}
	g := taco.NewGoldenRouter(gtbl, ifaces)
	g.AddLocal(ipv6.MustParseAddr("2001:db8:cafe::1"))
	want := make([][]byte, ifaces)
	for c := 0; c < ifaces; c++ {
		for i := c; i < len(pkts); i += ifaces {
			dec, out := g.Process(pkts[i].Data)
			if dec.Action == router.Forward {
				want[dec.OutIface] = append(want[dec.OutIface], out...)
			}
		}
	}
	for i := 0; i < ifaces; i++ {
		var got []byte
		for _, d := range tr.Outputs(i) {
			got = append(got, d.Data...)
		}
		status := "OK"
		if !bytes.Equal(got, want[i]) {
			status = "MISMATCH"
		}
		fmt.Printf("interface %d: %6d bytes out, golden cross-check %s\n", i, len(got), status)
	}
	gs := g.Stats()
	fmt.Printf("\ngolden stats: %d forwarded, %d local, %d dropped\n",
		gs.Forwarded, gs.LocalDelivered, gs.Dropped)
}

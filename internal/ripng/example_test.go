package ripng_test

import (
	"fmt"
	"log"

	"taco/internal/ipv6"
	"taco/internal/ripng"
	"taco/internal/rtable"
)

// Example shows the distance-vector core: a neighbour's response
// installs a route at metric+cost, and split horizon poisons it on the
// interface it was learned from. The update is encoded once and each
// interface's frame derived from it, as a router sends it; decoding
// each frame shows what that interface's neighbour hears.
func Example() {
	tbl := rtable.NewSequential()
	e := ripng.NewEngine(tbl, []ripng.Iface{
		{LinkLocal: ipv6.MustParseAddr("fe80::1"), Cost: 1},
		{LinkLocal: ipv6.MustParseAddr("fe80::2"), Cost: 1},
	}, 0)

	resp := ripng.Packet{Command: ripng.CommandResponse, RTEs: []ripng.RTE{
		{Prefix: ipv6.MustParsePrefix("2001:db8::/32"), Metric: 2},
	}}
	if err := e.Receive(0, ipv6.MustParseAddr("fe80::99"), resp); err != nil {
		log.Fatal(err)
	}
	r, _ := tbl.Lookup(ipv6.MustParseAddr("2001:db8::1"))
	fmt.Printf("installed: metric %d via iface %d\n", r.Metric, r.Iface)

	e.Tick(ripng.DefaultUpdateSeconds) // fire the periodic update
	batch := e.Collect()
	for f := 0; f < e.Ifaces(); f++ {
		for _, op := range batch {
			if !op.SentOn(f) {
				continue
			}
			base, err := ripng.WrapUDP(nil, e.LinkLocal(0), op.Dst, op.Pkt)
			if err != nil {
				log.Fatal(err)
			}
			_, pkt, err := ripng.UnwrapUDP(nil, ripng.DeriveUDP(nil, base, e.LinkLocal(f), op, f))
			if err != nil {
				log.Fatal(err)
			}
			for _, rte := range pkt.RTEs {
				fmt.Printf("iface %d advertises %s metric %d\n",
					f, ipv6.FormatPrefix(rte.Prefix), rte.Metric)
			}
		}
	}
	// Output:
	// installed: metric 3 via iface 0
	// iface 0 advertises 2001:db8::/32 metric 16
	// iface 1 advertises 2001:db8::/32 metric 3
}

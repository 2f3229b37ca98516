package router

import (
	"testing"

	"taco/internal/bits"
	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/linecard"
	"taco/internal/ripng"
	"taco/internal/rtable"
)

// TestRIPngThroughTACODatapath is the full-system integration test: a
// RIPng response datagram enters a line card, the TACO forwarding
// program classifies it as local (multicast group ff02::9), the host
// bridge feeds it to the RIPng engine, the engine installs the route in
// the shared table, and a subsequent data packet is forwarded out the
// interface the update taught — all through the cycle-accurate machine.
func TestRIPngThroughTACODatapath(t *testing.T) {
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		t.Run(kind.String(), func(t *testing.T) {
			tbl := rtable.New(kind)
			cfg := fu.Config3Bus1FU(kind)
			tr, err := NewTACO(cfg, tbl, nIfaces)
			if err != nil {
				t.Fatal(err)
			}
			ifaces := make([]ripng.Iface, nIfaces)
			for i := range ifaces {
				ifaces[i] = ripng.Iface{
					LinkLocal: bits.FromWords(0xfe800000, 0, 0, uint32(0x100+i)),
					Cost:      1,
				}
			}
			engine := ripng.NewEngine(tbl, ifaces, 0)
			host := NewHost(tr, engine)
			neighbor := ipv6.MustParseAddr("fe80::42")
			host.NeighborIface[neighbor] = 2 // neighbour lives on interface 2

			// A data packet for 2001:db8:77::1 — no route yet: dropped.
			dataHdr := ipv6.Header{HopLimit: 33,
				Src: ipv6.MustParseAddr("2001:db8::9"),
				Dst: ipv6.MustParseAddr("2001:db8:77::1")}
			data, err := ipv6.BuildDatagram(dataHdr, nil, ipv6.ProtoNoNext, []byte{1})
			if err != nil {
				t.Fatal(err)
			}
			tr.Deliver(0, linecard.Datagram{Data: data, Seq: 1})
			if err := tr.Run(1, 1_000_000); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < nIfaces; i++ {
				if n := len(tr.Outputs(i)); n != 0 {
					t.Fatalf("unrouted packet forwarded on iface %d", i)
				}
			}

			// The neighbour announces 2001:db8:77::/48.
			update := ripng.Packet{Command: ripng.CommandResponse, RTEs: []ripng.RTE{{
				Prefix: ipv6.MustParsePrefix("2001:db8:77::/48"), Metric: 1,
			}}}
			ud, err := ripng.WrapUDP(nil, neighbor, ipv6.AllRIPRouters, update)
			if err != nil {
				t.Fatal(err)
			}
			tr.Deliver(2, linecard.Datagram{Data: ud, Seq: 2})
			if err := tr.Run(2, 1_000_000); err != nil {
				t.Fatal(err)
			}
			if err := host.PumpLocal(); err != nil {
				t.Fatal(err)
			}
			if tbl.Len() != 1 {
				t.Fatalf("route not installed: table has %d entries", tbl.Len())
			}

			// The same data packet now forwards out interface 2.
			tr.Deliver(1, linecard.Datagram{Data: data, Seq: 3})
			if err := tr.Run(3, 1_000_000); err != nil {
				t.Fatal(err)
			}
			out := tr.Outputs(2)
			if len(out) != 1 {
				t.Fatalf("expected 1 datagram on iface 2, got %d", len(out))
			}
			h, err := ipv6.ParseHeader(out[0].Data)
			if err != nil {
				t.Fatal(err)
			}
			if h.HopLimit != 32 {
				t.Errorf("hop limit %d, want 32", h.HopLimit)
			}

			// The engine's periodic update flows back out the line cards.
			if err := host.Tick(ripng.DefaultUpdateSeconds); err != nil {
				t.Fatal(err)
			}
			total := 0
			for i := 0; i < nIfaces; i++ {
				for _, d := range tr.Outputs(i) {
					src, pkt, err := ripng.UnwrapUDP(nil, d.Data)
					if err != nil {
						t.Fatalf("iface %d: bad update: %v", i, err)
					}
					if pkt.Command != ripng.CommandResponse {
						t.Errorf("iface %d: command %d", i, pkt.Command)
					}
					if !ipv6.IsLinkLocal(src) {
						t.Errorf("iface %d: update from %s", i, ipv6.FormatAddr(src))
					}
					total++
				}
			}
			if total != nIfaces {
				t.Errorf("%d periodic updates, want %d", total, nIfaces)
			}
		})
	}
}

// TestHostIgnoresNonRIPngLocalTraffic checks that stray local datagrams
// do not break the bridge.
func TestHostIgnoresNonRIPngLocalTraffic(t *testing.T) {
	tbl := rtable.NewSequential()
	tr, err := NewTACO(fu.Config1Bus1FU(rtable.Sequential), tbl, nIfaces)
	if err != nil {
		t.Fatal(err)
	}
	tr.AddLocal(routerAddr)
	engine := ripng.NewEngine(tbl, []ripng.Iface{{LinkLocal: ipv6.MustParseAddr("fe80::1"), Cost: 1}}, 0)
	host := NewHost(tr, engine)

	h := ipv6.Header{HopLimit: 64, Src: ipv6.MustParseAddr("2001:db8::5"), Dst: routerAddr}
	// An ICMPv6 echo request: type 128, code 0, checksum, identifier
	// and sequence number.
	ping, err := ipv6.BuildDatagram(h, nil, ipv6.ProtoICMPv6, []byte{128, 0, 0, 0, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	tr.Deliver(0, linecard.Datagram{Data: ping, Seq: 1})
	if err := tr.Run(1, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := host.PumpLocal(); err != nil {
		t.Fatal(err)
	}
	if host.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", host.Dropped)
	}
	if tbl.Len() != 0 {
		t.Error("table modified by non-RIPng traffic")
	}
}

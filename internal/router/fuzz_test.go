package router

import (
	"bytes"
	"testing"

	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/linecard"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// maxFuzzDatagram caps the fuzzer's raw frame well beyond the line
// cards' MTU contract (linecard.MaxFrameBytes), so oversize frames are
// exercised — both routers must classify them as oversize drops — while
// pathological multi-megabyte inputs stay cheap.
const maxFuzzDatagram = 4 * linecard.MaxFrameBytes

// fuzzWorkload assembles the differential packet list for one fuzz
// input: generated table hits and misses, the corner cases the paper's
// forwarding path must classify (hop limit 0/1, no-route destination,
// local and multicast addresses), and the raw fuzz bytes themselves as
// an arbitrary — usually malformed — frame.
func fuzzWorkload(t *testing.T, routes []rtable.Route, seed uint64, hop uint8, raw []byte) []workload.Packet {
	t.Helper()
	spec := workload.PaperTrafficSpec(8)
	spec.Seed = seed
	spec.MissRatio = 0.25
	spec.HopLimitOneRatio = 0.1
	pkts, err := workload.GenerateTraffic(routes, spec)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(dst ipv6.Addr, hop uint8) workload.Packet {
		h := ipv6.Header{HopLimit: hop, Src: ipv6.MustParseAddr("2001:db8::99"), Dst: dst}
		d, err := ipv6.BuildDatagram(h, nil, ipv6.ProtoNoNext, []byte{0xde, 0xad})
		if err != nil {
			t.Fatal(err)
		}
		return workload.Packet{Data: d, Dst: dst}
	}
	routable := routes[int(seed)%len(routes)].Prefix.Addr
	if len(raw) > maxFuzzDatagram {
		raw = raw[:maxFuzzDatagram]
	}
	pkts = append(pkts,
		mk(routable, 0),   // hop limit exhausted on arrival
		mk(routable, 1),   // hop limit exhausts here: drop, not forward-with-0
		mk(routable, hop), // fuzz-chosen hop limit
		mk(ipv6.MustParseAddr("3fff:ffff::1"), 64), // documentation range: no route
		mk(routerAddr, 64),                         // router's own unicast address
		mk(ipv6.AllRIPRouters, 255),                // RIPng multicast group
		workload.Packet{Data: raw},                 // arbitrary fuzz frame
	)

	// Seeded adversarial mutations of a known-good datagram: every
	// DropReason the fault layer can provoke must classify identically
	// on both routers (the drop-verdict half of the differential).
	base := mk(routable, 64).Data
	truncated := append([]byte(nil), base...)[:int(seed)%len(base)] // runt or length mismatch
	badVersion := append([]byte(nil), base...)
	badVersion[0] = byte((int(badVersion[0]>>4)+1+int(hop)%14)%16)<<4 | badVersion[0]&0x0f
	lenMismatch := append([]byte(nil), base...)
	lenMismatch[4], lenMismatch[5] = 0xff, byte(seed) // PayloadLen overruns the frame
	oversize, err := ipv6.BuildDatagram(
		ipv6.Header{HopLimit: 64, Src: ipv6.MustParseAddr("2001:db8::99"), Dst: routable},
		nil, ipv6.ProtoNoNext, make([]byte, linecard.MaxFrameBytes+1+int(seed%64)))
	if err != nil {
		t.Fatal(err)
	}
	pkts = append(pkts,
		workload.Packet{Data: truncated},
		workload.Packet{Data: badVersion},
		workload.Packet{Data: lenMismatch},
		workload.Packet{Data: oversize},
	)
	for i := range pkts {
		pkts[i].Seq = int64(i)
	}
	return pkts
}

// FuzzGoldenVsTACO is the differential fuzz target: whatever frame
// bytes, hop limits and workload seeds the fuzzer invents, the golden
// software router and the cycle-accurate TACO router must agree by
// Compare — every datagram's fate and output bytes, every card's drop
// counts — and must do so again after TACO.Reset,
// proving the reset-based (allocation-free) simulator state carries
// nothing across batches.
func FuzzGoldenVsTACO(f *testing.F) {
	f.Add([]byte{}, uint64(1), uint8(0), uint8(64))
	f.Add([]byte{0x60, 1, 2}, uint64(7), uint8(1), uint8(1))                         // runt with IPv6 nibble
	f.Add([]byte{0x45, 0, 0, 40}, uint64(13), uint8(2), uint8(0))                    // IPv4-looking runt
	f.Add(make([]byte, 39), uint64(42), uint8(3), uint8(255))                        // one byte short of a header
	f.Add(append([]byte{0x40}, make([]byte, 60)...), uint64(99), uint8(4), uint8(2)) // version 4, full length
	f.Add(bytes.Repeat([]byte{0x66}, 2048), uint64(2003), uint8(5), uint8(128))      // MTU-limit frame
	valid, err := ipv6.BuildDatagram(
		ipv6.Header{HopLimit: 64, Src: ipv6.MustParseAddr("2001:db8::9"),
			Dst: ipv6.MustParseAddr("2001:db8::1234")},
		nil, ipv6.ProtoNoNext, []byte{1, 2, 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint64(5), uint8(6), uint8(3))

	kinds := []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM}
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64, sel uint8, hop uint8) {
		kind := kinds[int(sel)%len(kinds)]
		cfg := fu.PaperConfigs(kind)[int(sel/3)%3]
		routes := workload.GenerateRoutes(workload.TableSpec{
			Entries: 10 + int(seed%4)*10, Ifaces: nIfaces, Seed: seed,
		})
		arrivals := RoundRobin(fuzzWorkload(t, routes, seed, hop, raw), nIfaces)

		g := NewGolden(fillTable(t, kind, routes), nIfaces)
		g.AddLocal(routerAddr)
		want := g.Expected(arrivals)
		tr, err := NewTACO(cfg, fillTable(t, kind, routes), nIfaces)
		if err != nil {
			t.Fatal(err)
		}
		tr.AddLocal(routerAddr)
		tr.EnableDropAudit()
		check := func(label string) {
			t.Helper()
			run, err := tr.RunChecked(arrivals, want, 20_000_000, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := run.Diff; !d.Agree() {
				t.Errorf("%v/%s%s: golden and TACO disagree on seqs %v, drop counters of cards %v",
					kind, cfg.Name, label, d.Seqs, d.Cards)
			}
		}
		check("")

		// Same instance, after Reset: batch two must decide identically,
		// or the reused scratch state leaked something across batches.
		tr.Reset()
		check(" after Reset")
	})
}

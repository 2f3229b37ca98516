package ripng

import (
	"strings"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/rtable"
)

func ll(n uint64) ipv6.Addr {
	return bits.FromWords(0xfe800000, 0, 0, uint32(n))
}

func pfx(s string) bits.Prefix { return ipv6.MustParsePrefix(s) }

func newTestEngine(t *testing.T, nIfaces int) *Engine {
	t.Helper()
	ifaces := make([]Iface, nIfaces)
	for i := range ifaces {
		ifaces[i] = Iface{LinkLocal: ll(uint64(i + 1)), Cost: 1}
	}
	return NewEngine(rtable.NewSequential(), ifaces, 0)
}

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{Command: CommandResponse, RTEs: []RTE{
		{Prefix: pfx("2001:db8::/32"), Tag: 0xbeef, Metric: 3},
		{Prefix: pfx("2001:db8:1::/48"), Metric: 16},
		{Prefix: pfx("::/0"), Metric: 1},
	}}
	got, err := Parse(nil, p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != p.Command || len(got.RTEs) != 3 {
		t.Fatalf("parsed %+v", got)
	}
	for i := range p.RTEs {
		if got.RTEs[i] != p.RTEs[i] {
			t.Errorf("RTE %d: %+v vs %+v", i, got.RTEs[i], p.RTEs[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	good := Packet{Command: CommandResponse, RTEs: []RTE{{Prefix: pfx("::/0"), Metric: 1}}}.Marshal()
	cases := map[string][]byte{
		"short":       {1},
		"bad version": {2, 9, 0, 0},
		"bad command": {7, 1, 0, 0},
		"ragged body": append(append([]byte{}, good...), 1, 2, 3),
		"bad metric":  func() []byte { b := append([]byte{}, good...); b[HeaderBytes+19] = 0; return b }(),
		"bad pfx len": func() []byte { b := append([]byte{}, good...); b[HeaderBytes+18] = 200; return b }(),
	}
	for name, b := range cases {
		if _, err := Parse(nil, b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Metric 0xff (next hop RTE) must be accepted regardless of length.
	nh := append([]byte{2, 1, 0, 0}, make([]byte, 20)...)
	nh[HeaderBytes+19] = NextHopMetric
	nh[HeaderBytes+18] = 200 // length field unused in next-hop RTEs
	if _, err := Parse(nil, nh); err != nil {
		t.Errorf("next-hop RTE rejected: %v", err)
	}
}

func TestWholeTableRequest(t *testing.T) {
	if !IsWholeTableRequest(WholeTableRequest()) {
		t.Error("canonical request not recognised")
	}
	notIt := Packet{Command: CommandRequest, RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 16}}}
	if IsWholeTableRequest(notIt) {
		t.Error("specific request misrecognised")
	}
}

func TestWrapUnwrapUDP(t *testing.T) {
	p := Packet{Command: CommandResponse, RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 2}}}
	d, err := WrapUDP(nil, ll(1), ipv6.AllRIPRouters, p)
	if err != nil {
		t.Fatal(err)
	}
	src, got, err := UnwrapUDP(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if src != ll(1) || got.Command != CommandResponse || len(got.RTEs) != 1 {
		t.Errorf("unwrap = %v %+v", ipv6.FormatAddr(src), got)
	}
	h, _ := ipv6.ParseHeader(d)
	if h.HopLimit != 255 {
		t.Errorf("hop limit = %d, want 255", h.HopLimit)
	}
	// Corruption must be detected by the UDP checksum.
	d[50] ^= 0xff
	if _, _, err := UnwrapUDP(nil, d); err == nil {
		t.Error("corrupted datagram unwrapped")
	}
}

func TestLearnAndInstallRoute(t *testing.T) {
	e := newTestEngine(t, 2)
	resp := Packet{Command: CommandResponse, RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 1}}}
	if err := e.Receive(0, ll(99), resp); err != nil {
		t.Fatal(err)
	}
	r, ok := e.Table().Lookup(ipv6.MustParseAddr("2001:db8::5"))
	if !ok {
		t.Fatal("route not installed")
	}
	if r.Metric != 2 || r.Iface != 0 || r.NextHop != ll(99) {
		t.Errorf("route = %+v", r)
	}
}

func TestMetricInfinityNotInstalled(t *testing.T) {
	e := newTestEngine(t, 1)
	resp := Packet{Command: CommandResponse, RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 15}}}
	if err := e.Receive(0, ll(99), resp); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Table().Lookup(ipv6.MustParseAddr("2001:db8::5")); ok {
		t.Error("unreachable route installed (15+1 = 16)")
	}
}

func TestNonLinkLocalResponseRejected(t *testing.T) {
	e := newTestEngine(t, 1)
	resp := Packet{Command: CommandResponse, RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 1}}}
	err := e.Receive(0, ipv6.MustParseAddr("2001:db8::1"), resp)
	if err == nil || !strings.Contains(err.Error(), "link-local") {
		t.Errorf("err = %v", err)
	}
}

func TestBetterRouteWins(t *testing.T) {
	e := newTestEngine(t, 2)
	if err := e.Receive(0, ll(1), Packet{Command: CommandResponse,
		RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 5}}}); err != nil {
		t.Fatal(err)
	}
	// Worse route through another gateway: ignored.
	if err := e.Receive(1, ll(2), Packet{Command: CommandResponse,
		RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 9}}}); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Table().Lookup(ipv6.MustParseAddr("2001:db8::1"))
	if r.Iface != 0 || r.Metric != 6 {
		t.Fatalf("route = %+v after worse offer", r)
	}
	// Better route: adopted.
	if err := e.Receive(1, ll(2), Packet{Command: CommandResponse,
		RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 2}}}); err != nil {
		t.Fatal(err)
	}
	r, _ = e.Table().Lookup(ipv6.MustParseAddr("2001:db8::1"))
	if r.Iface != 1 || r.Metric != 3 {
		t.Fatalf("route = %+v after better offer", r)
	}
}

func TestSameGatewayAlwaysBelieved(t *testing.T) {
	e := newTestEngine(t, 1)
	if err := e.Receive(0, ll(1), Packet{Command: CommandResponse,
		RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 2}}}); err != nil {
		t.Fatal(err)
	}
	// The same gateway reports a worse metric: believed.
	if err := e.Receive(0, ll(1), Packet{Command: CommandResponse,
		RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 7}}}); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Table().Lookup(ipv6.MustParseAddr("2001:db8::1"))
	if r.Metric != 8 {
		t.Errorf("metric = %d, want 8", r.Metric)
	}
}

func TestDirectRouteNeverLearnedOver(t *testing.T) {
	e := newTestEngine(t, 2)
	if err := e.AddDirect(pfx("2001:db8:aaaa::/48"), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Receive(1, ll(2), Packet{Command: CommandResponse,
		RTEs: []RTE{{Prefix: pfx("2001:db8:aaaa::/48"), Metric: 1}}}); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Table().Lookup(ipv6.MustParseAddr("2001:db8:aaaa::1"))
	if r.Iface != 0 || r.Metric != 1 {
		t.Errorf("direct route displaced: %+v", r)
	}
}

func TestPeriodicUpdateAndSplitHorizon(t *testing.T) {
	e := newTestEngine(t, 2)
	if err := e.AddDirect(pfx("2001:db8:aaaa::/48"), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Receive(1, ll(7), Packet{Command: CommandResponse,
		RTEs: []RTE{{Prefix: pfx("2001:db8:bbbb::/48"), Metric: 1}}}); err != nil {
		t.Fatal(err)
	}
	e.Collect() // discard triggered output
	e.Tick(DefaultUpdateSeconds)
	out := e.Collect()
	if len(out) != 2 {
		t.Fatalf("periodic update on %d interfaces, want 2", len(out))
	}
	for _, op := range out {
		if op.Dst != ipv6.AllRIPRouters {
			t.Errorf("update sent to %v", ipv6.FormatAddr(op.Dst))
		}
		for _, rte := range op.Pkt.RTEs {
			if rte.Prefix == pfx("2001:db8:bbbb::/48") {
				// Poisoned reverse: interface 1 learned it, so iface 1
				// must advertise metric 16.
				if op.Iface == 1 && rte.Metric != Infinity {
					t.Errorf("split horizon violated: iface 1 advertises metric %d", rte.Metric)
				}
				if op.Iface == 0 && rte.Metric != 2 {
					t.Errorf("iface 0 advertises metric %d, want 2", rte.Metric)
				}
			}
		}
	}
}

func TestRequestWholeTable(t *testing.T) {
	e := newTestEngine(t, 1)
	if err := e.AddDirect(pfx("2001:db8:aaaa::/48"), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Receive(0, ll(42), WholeTableRequest()); err != nil {
		t.Fatal(err)
	}
	out := e.Collect()
	if len(out) != 1 || out[0].Dst != ll(42) {
		t.Fatalf("response = %+v", out)
	}
	if len(out[0].Pkt.RTEs) != 1 || out[0].Pkt.RTEs[0].Prefix != pfx("2001:db8:aaaa::/48") {
		t.Errorf("RTEs = %+v", out[0].Pkt.RTEs)
	}
}

func TestSpecificRequest(t *testing.T) {
	e := newTestEngine(t, 1)
	if err := e.AddDirect(pfx("2001:db8:aaaa::/48"), 0); err != nil {
		t.Fatal(err)
	}
	req := Packet{Command: CommandRequest, RTEs: []RTE{
		{Prefix: pfx("2001:db8:aaaa::/48"), Metric: 1},
		{Prefix: pfx("2001:db8:cccc::/48"), Metric: 1},
	}}
	if err := e.Receive(0, ll(42), req); err != nil {
		t.Fatal(err)
	}
	out := e.Collect()
	if len(out) != 1 || len(out[0].Pkt.RTEs) != 2 {
		t.Fatalf("response = %+v", out)
	}
	if out[0].Pkt.RTEs[0].Metric != 1 || out[0].Pkt.RTEs[1].Metric != Infinity {
		t.Errorf("metrics = %d, %d", out[0].Pkt.RTEs[0].Metric, out[0].Pkt.RTEs[1].Metric)
	}
}

func TestTimeoutPoisonsAndGCDeletes(t *testing.T) {
	e := newTestEngine(t, 1)
	e.SetTimers(30, 180, 120)
	if err := e.Receive(0, ll(1), Packet{Command: CommandResponse,
		RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 1}}}); err != nil {
		t.Fatal(err)
	}
	addr := ipv6.MustParseAddr("2001:db8::1")
	e.Tick(179)
	if _, ok := e.Table().Lookup(addr); !ok {
		t.Fatal("route gone before timeout")
	}
	e.Tick(181)
	if _, ok := e.Table().Lookup(addr); ok {
		t.Error("timed-out route still forwarding")
	}
	if e.RouteCount() != 1 {
		t.Error("poisoned route missing from RIP table (should await GC)")
	}
	// The poisoned route must be advertised with metric 16.
	found := false
	for _, op := range e.Collect() {
		for _, rte := range op.Pkt.RTEs {
			if rte.Prefix == pfx("2001:db8::/32") && rte.Metric == Infinity {
				found = true
			}
		}
	}
	if !found {
		t.Error("no poisoned advertisement after timeout")
	}
	e.Tick(181 + 120)
	if e.RouteCount() != 0 {
		t.Error("route not garbage-collected")
	}
}

func TestTriggeredUpdate(t *testing.T) {
	e := newTestEngine(t, 2)
	if err := e.Receive(0, ll(1), Packet{Command: CommandResponse,
		RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 1}}}); err != nil {
		t.Fatal(err)
	}
	e.Tick(1) // before the periodic interval: triggered update
	out := e.Collect()
	if len(out) == 0 {
		t.Fatal("no triggered update")
	}
	total := 0
	for _, op := range out {
		total += len(op.Pkt.RTEs)
	}
	if total == 0 {
		t.Error("triggered update empty")
	}
	// Nothing further changed: the next tick emits nothing.
	e.Tick(2)
	if out := e.Collect(); len(out) != 0 {
		t.Errorf("spurious update: %+v", out)
	}
}

func TestPacketSplitAtMTU(t *testing.T) {
	e := newTestEngine(t, 1)
	for i := 0; i < MaxRTEsPerPacket+5; i++ {
		p := bits.MakePrefix(bits.FromWords(0x20010000+uint32(i), 0, 0, 0), 32)
		if err := e.AddDirect(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Receive(0, ll(9), WholeTableRequest()); err != nil {
		t.Fatal(err)
	}
	out := e.Collect()
	if len(out) != 2 {
		t.Fatalf("packets = %d, want 2", len(out))
	}
	if len(out[0].Pkt.RTEs) != MaxRTEsPerPacket || len(out[1].Pkt.RTEs) != 5 {
		t.Errorf("split = %d + %d", len(out[0].Pkt.RTEs), len(out[1].Pkt.RTEs))
	}
}

func TestMulticastPrefixIgnored(t *testing.T) {
	e := newTestEngine(t, 1)
	if err := e.Receive(0, ll(1), Packet{Command: CommandResponse,
		RTEs: []RTE{{Prefix: pfx("ff00::/8"), Metric: 1}}}); err != nil {
		t.Fatal(err)
	}
	if e.RouteCount() != 0 {
		t.Error("multicast prefix learned")
	}
}

// TestThreeRouterConvergence wires three engines in a line
// (A -0- B -1- C) and verifies distance-vector convergence and failure
// propagation — the routing-table-maintenance half of the paper's router.
func TestThreeRouterConvergence(t *testing.T) {
	mk := func(name string) *Engine {
		return NewEngine(rtable.NewSequential(), []Iface{
			{LinkLocal: ll(uint64(len(name))), Cost: 1},
			{LinkLocal: ll(uint64(len(name) + 10)), Cost: 1},
		}, 0)
	}
	a, b, c := mk("a"), mk("ab"), mk("abc")
	netA := pfx("2001:db8:a::/48")
	netC := pfx("2001:db8:c::/48")
	if err := a.AddDirect(netA, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDirect(netC, 1); err != nil {
		t.Fatal(err)
	}

	// Link topology: a.if0 <-> b.if0, b.if1 <-> c.if0.
	type link struct {
		e1 *Engine
		i1 int
		e2 *Engine
		i2 int
	}
	links := []link{{a, 0, b, 0}, {b, 1, c, 0}}
	broken := map[int]bool{}
	exchange := func(now Clock) {
		engines := []*Engine{a, b, c}
		for _, e := range engines {
			e.Tick(now)
		}
		// Collect each engine's output once, then deliver per link.
		outs := make(map[*Engine][]OutPacket, len(engines))
		for _, e := range engines {
			outs[e] = e.Collect()
		}
		deliver := func(from *Engine, fromIf int, to *Engine, toIf int) {
			for _, op := range outs[from] {
				if op.Iface == fromIf {
					if err := to.Receive(toIf, from.LinkLocal(fromIf), op.Pkt); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for li, l := range links {
			if broken[li] {
				continue
			}
			deliver(l.e1, l.i1, l.e2, l.i2)
			deliver(l.e2, l.i2, l.e1, l.i1)
		}
	}

	for s := Clock(30); s <= 150; s += 30 {
		exchange(s)
	}
	// A must know netC via interface 0 at metric 3 (direct 1 + 2 hops).
	r, ok := a.Table().Lookup(ipv6.MustParseAddr("2001:db8:c::1"))
	if !ok {
		t.Fatal("A never learned C's network")
	}
	if r.Iface != 0 || r.Metric != 3 {
		t.Errorf("A's route to netC = %+v", r)
	}
	rc, ok := c.Table().Lookup(ipv6.MustParseAddr("2001:db8:a::1"))
	if !ok || rc.Metric != 3 {
		t.Fatalf("C's route to netA = %+v ok=%v", rc, ok)
	}

	// Break the B-C link; after timeout, A must lose the route.
	broken[1] = true
	for s := Clock(180); s <= 600; s += 30 {
		exchange(s)
	}
	if _, ok := a.Table().Lookup(ipv6.MustParseAddr("2001:db8:c::1")); ok {
		t.Error("A still routes to netC after B-C link failure")
	}
	// netA must survive.
	if _, ok := c.Table().Lookup(ipv6.MustParseAddr("2001:db8:a::1")); ok {
		t.Error("C still routes to netA with its only link broken")
	}
}

func TestStartupRequest(t *testing.T) {
	e := newTestEngine(t, 2)
	e.Start()
	out := e.Collect()
	if len(out) != 2 {
		t.Fatalf("startup queued %d packets, want 2", len(out))
	}
	for _, op := range out {
		if op.Dst != ipv6.AllRIPRouters {
			t.Errorf("startup request to %v", ipv6.FormatAddr(op.Dst))
		}
		if !IsWholeTableRequest(op.Pkt) {
			t.Errorf("startup packet is not a whole-table request: %+v", op.Pkt)
		}
	}
	// A neighbour with routes answers the request immediately.
	peer := newTestEngine(t, 1)
	if err := peer.AddDirect(pfx("2001:db8:aaaa::/48"), 0); err != nil {
		t.Fatal(err)
	}
	if err := peer.Receive(0, ll(5), out[0].Pkt); err != nil {
		t.Fatal(err)
	}
	answers := peer.Collect()
	if len(answers) != 1 || answers[0].Dst != ll(5) {
		t.Fatalf("peer answers = %+v", answers)
	}
	if err := e.Receive(0, peer.LinkLocal(0), answers[0].Pkt); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Table().Lookup(ipv6.MustParseAddr("2001:db8:aaaa::1")); !ok {
		t.Error("route not learned from startup exchange")
	}
}

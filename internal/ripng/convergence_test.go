// Two-peer RIPng convergence over every routing-table backend: the
// protocol engine is generic over rtable.Table, so running the same
// two-router topology once per table kind must converge to the same
// forwarding state — the listings from Routes() are required to be
// identical across kinds, and to match the expected topology exactly.
// This is the integration-level counterpart of the differential LPM
// harness: it exercises each backend's Insert/Delete/Replace through a
// real protocol workload (periodic updates, triggered updates, route
// expiry) instead of synthetic churn.
package ripng_test

import (
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/ripng"
	"taco/internal/rtable"
)

// peer bundles one engine with its link interface number.
type peer struct {
	eng  *ripng.Engine
	link int // interface index of the A<->B link
	ll   ipv6.Addr
}

// exchange delivers all queued link packets between a and b, returning
// how many packets moved.
func exchange(t *testing.T, a, b *peer) int {
	t.Helper()
	moved := 0
	for _, op := range a.eng.Collect() {
		if !op.SentOn(a.link) {
			continue // stub interface: no listener
		}
		if err := b.eng.Receive(b.link, a.ll, op.On(a.link)); err != nil {
			t.Fatalf("B.Receive: %v", err)
		}
		moved++
	}
	for _, op := range b.eng.Collect() {
		if !op.SentOn(b.link) {
			continue
		}
		if err := a.eng.Receive(a.link, b.ll, op.On(b.link)); err != nil {
			t.Fatalf("A.Receive: %v", err)
		}
		moved++
	}
	return moved
}

// runTwoPeer wires routers A and B back-to-back on interface 0, gives
// each some directly connected stub networks, and ticks both until the
// topology converges. It returns both routers' sorted route listings.
func runTwoPeer(t *testing.T, kind rtable.Kind) (routesA, routesB []rtable.Route) {
	t.Helper()
	llA := ipv6.MustParseAddr("fe80::a")
	llB := ipv6.MustParseAddr("fe80::b")
	a := &peer{
		eng: ripng.NewEngine(rtable.New(kind), []ripng.Iface{
			{LinkLocal: llA, Cost: 1},                            // if0: link to B
			{LinkLocal: ipv6.MustParseAddr("fe80::a1"), Cost: 1}, // if1: stub
		}, 0),
		link: 0, ll: llA,
	}
	b := &peer{
		eng: ripng.NewEngine(rtable.New(kind), []ripng.Iface{
			{LinkLocal: llB, Cost: 1},                            // if0: link to A
			{LinkLocal: ipv6.MustParseAddr("fe80::b1"), Cost: 1}, // if1: stub
			{LinkLocal: ipv6.MustParseAddr("fe80::b2"), Cost: 1}, // if2: stub
		}, 0),
		link: 0, ll: llB,
	}

	mustDirect := func(e *ripng.Engine, s string, ln, iface int) {
		t.Helper()
		if err := e.AddDirect(bits.MakePrefix(ipv6.MustParseAddr(s), ln), iface); err != nil {
			t.Fatal(err)
		}
	}
	mustDirect(a.eng, "2001:db8:a::", 48, 1)
	mustDirect(b.eng, "2001:db8:b::", 48, 1)
	mustDirect(b.eng, "2001:db8:c::", 64, 2)

	a.eng.Start()
	b.eng.Start()
	for now := ripng.Clock(0); now <= 90; now++ {
		a.eng.Tick(now)
		b.eng.Tick(now)
		exchange(t, a, b)
	}
	return a.eng.Table().Routes(), b.eng.Table().Routes()
}

// TestTwoPeerConvergenceAllKinds runs the scenario over every table
// kind and requires the converged FIBs to be identical across kinds and
// to match the expected topology.
func TestTwoPeerConvergenceAllKinds(t *testing.T) {
	type fib struct{ a, b []rtable.Route }
	got := map[rtable.Kind]fib{}
	for _, kind := range rtable.Kinds {
		ra, rb := runTwoPeer(t, kind)
		got[kind] = fib{ra, rb}
	}

	// Expected converged state, checked on the sequential run: each
	// router sees all three networks — its own direct nets at metric 1,
	// the peer's at metric 2 via the peer's link-local next hop.
	ref := got[rtable.Sequential]
	netA := bits.MakePrefix(ipv6.MustParseAddr("2001:db8:a::"), 48)
	netB := bits.MakePrefix(ipv6.MustParseAddr("2001:db8:b::"), 48)
	netC := bits.MakePrefix(ipv6.MustParseAddr("2001:db8:c::"), 64)
	wantA := map[bits.Prefix]int{netA: 1, netB: 2, netC: 2}
	wantB := map[bits.Prefix]int{netA: 2, netB: 1, netC: 1}
	check := func(name string, rs []rtable.Route, want map[bits.Prefix]int, peerLL ipv6.Addr) {
		t.Helper()
		if len(rs) != len(want) {
			t.Fatalf("%s: %d routes, want %d: %v", name, len(rs), len(want), rs)
		}
		for _, r := range rs {
			m, ok := want[r.Prefix]
			if !ok {
				t.Errorf("%s: unexpected route %v", name, r)
				continue
			}
			if r.Metric != m {
				t.Errorf("%s: %v metric %d, want %d", name, r.Prefix, r.Metric, m)
			}
			if m > 1 && r.NextHop != peerLL {
				t.Errorf("%s: %v next hop %v, want %v", name, r.Prefix, r.NextHop, peerLL)
			}
		}
	}
	check("A", ref.a, wantA, ipv6.MustParseAddr("fe80::b"))
	check("B", ref.b, wantB, ipv6.MustParseAddr("fe80::a"))

	// Cross-kind agreement: every backend's converged FIB must be
	// identical, entry for entry, to the sequential reference.
	for _, kind := range rtable.Kinds[1:] {
		f := got[kind]
		if !equalRoutes(f.a, ref.a) {
			t.Errorf("%v: router A FIB diverges from sequential:\n%v\nvs\n%v", kind, f.a, ref.a)
		}
		if !equalRoutes(f.b, ref.b) {
			t.Errorf("%v: router B FIB diverges from sequential:\n%v\nvs\n%v", kind, f.b, ref.b)
		}
	}
}

// TestTwoPeerLinkFailureAllKinds severs the A<->B link after
// convergence and checks the learned route ages out of A's forwarding
// table identically on every backend: RFC 2080 expiry (timeout, then
// garbage collection) drives the table's Delete path through the real
// protocol rather than synthetic churn.
func TestTwoPeerLinkFailureAllKinds(t *testing.T) {
	for _, kind := range rtable.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			llA := ipv6.MustParseAddr("fe80::a")
			llB := ipv6.MustParseAddr("fe80::b")
			a := &peer{eng: ripng.NewEngine(rtable.New(kind),
				[]ripng.Iface{{LinkLocal: llA, Cost: 1}}, 0), link: 0, ll: llA}
			b := &peer{eng: ripng.NewEngine(rtable.New(kind), []ripng.Iface{
				{LinkLocal: llB, Cost: 1},
				{LinkLocal: ipv6.MustParseAddr("fe80::b1"), Cost: 1},
			}, 0), link: 0, ll: llB}
			net := bits.MakePrefix(ipv6.MustParseAddr("2001:db8:dead::"), 48)
			if err := b.eng.AddDirect(net, 1); err != nil {
				t.Fatal(err)
			}
			a.eng.Start()
			b.eng.Start()
			now := ripng.Clock(0)
			for ; now <= 60; now++ {
				a.eng.Tick(now)
				b.eng.Tick(now)
				exchange(t, a, b)
			}
			if _, ok := a.eng.Table().Lookup(net.First()); !ok {
				t.Fatal("A never learned the route")
			}
			// Sever the link: B's updates stop arriving, so the route
			// must expire on A. RFC 2080 expiry is timeout+gc after the
			// last refresh; run well past it, draining A's own queue.
			for ; now <= 500; now++ {
				a.eng.Tick(now)
				a.eng.Collect()
			}
			if r, ok := a.eng.Table().Lookup(net.First()); ok {
				t.Fatalf("withdrawn route still forwarding on A: %v", r)
			}
		})
	}
}

// equalRoutes compares canonical listings element-wise (nil and empty
// are the same listing).
func equalRoutes(a, b []rtable.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

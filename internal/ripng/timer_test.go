// RFC 2080 timer hardening: route timeout and garbage-collection aging
// are driven entirely by the simulated clock handed to Tick, and the
// lifecycle ordering is pinned — expiry poisons the route (metric 16),
// the poison is advertised before the route may be garbage-collected,
// and only then is the protocol entry deleted. These orderings are what
// make network-scale convergence timing honest: a route that vanished
// without its metric-16 advertisement would let neighbors keep using a
// dead path without ever being told.
package ripng_test

import (
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/ripng"
	"taco/internal/rtable"
)

var (
	timerPrefix = bits.MakePrefix(bits.Word128{Hi: 0x2001_0db8_00aa_0000}, 48)
	timerGW     = ipv6.MustParseAddr("fe80::77")
)

// timerEngine returns a one-interface engine that has learned a single
// route (metric 2 via timerGW on interface 0) at clock 0.
func timerEngine(t *testing.T, update, timeout, gc ripng.Clock) (*ripng.Engine, rtable.Table) {
	t.Helper()
	// Two interfaces: the route is learned on 0, and advertisements are
	// observed on 1, where split horizon's poisoned reverse does not
	// apply — a metric-16 entry seen there is a real withdrawal.
	tbl := rtable.New(rtable.Sequential)
	eng := ripng.NewEngine(tbl, []ripng.Iface{
		{LinkLocal: ipv6.MustParseAddr("fe80::1"), Cost: 1},
		{LinkLocal: ipv6.MustParseAddr("fe80::2"), Cost: 1},
	}, 0)
	eng.SetTimers(update, timeout, gc)
	if err := eng.Receive(0, timerGW, ripng.Packet{
		Command: ripng.CommandResponse,
		RTEs:    []ripng.RTE{{Prefix: timerPrefix, Metric: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("route not installed: table has %d entries", tbl.Len())
	}
	eng.Collect() // discard the startup traffic
	return eng, tbl
}

// poisonedRTEs returns the metric-16 entries for timerPrefix advertised
// on interface 1 (real withdrawals, not split horizon's poisoned
// reverse on the learning interface).
func poisonedRTEs(ops []ripng.OutPacket) int {
	n := 0
	for _, op := range ops {
		if !op.SentOn(1) {
			continue
		}
		for _, rte := range op.On(1).RTEs {
			if rte.Prefix == timerPrefix && rte.Metric == ripng.Infinity {
				n++
			}
		}
	}
	return n
}

// TestExpiryPoisonDeletionOrdering drives a route through its full
// RFC 2080 lifecycle on the simulated clock: alive until the timeout,
// poisoned (FIB delete + triggered metric-16 advertisement) exactly at
// expiry, held for the GC interval while still answering for the
// prefix, then deleted from protocol state.
func TestExpiryPoisonDeletionOrdering(t *testing.T) {
	const (
		timeout = 5
		gc      = 3
	)
	eng, tbl := timerEngine(t, 1000, timeout, gc)

	for now := ripng.Clock(1); now < timeout; now++ {
		eng.Tick(now)
		if tbl.Len() != 1 {
			t.Fatalf("tick %d: route dropped from FIB before the timeout", now)
		}
		if got := poisonedRTEs(eng.Collect()); got != 0 {
			t.Fatalf("tick %d: %d poison advertisements before the timeout", now, got)
		}
	}

	// Expiry tick: FIB entry goes, triggered update poisons the route,
	// protocol entry stays for GC aging.
	eng.Tick(timeout)
	if tbl.Len() != 0 {
		t.Fatal("expired route still in FIB")
	}
	if got := poisonedRTEs(eng.Collect()); got != 1 {
		t.Fatalf("expiry advertised %d poison RTEs, want 1", got)
	}
	if eng.RouteCount() != 1 {
		t.Fatal("poisoned route deleted before GC aging")
	}

	// GC hold-down: the entry survives until expiry + gc.
	for now := ripng.Clock(timeout + 1); now < timeout+gc; now++ {
		eng.Tick(now)
		if eng.RouteCount() != 1 {
			t.Fatalf("tick %d: poisoned route GCed %d ticks early", now, timeout+gc-now)
		}
	}
	eng.Tick(timeout + gc)
	if eng.RouteCount() != 0 {
		t.Fatal("poisoned route survived its GC deadline")
	}
	eng.Collect()
}

// TestGCWaitsForPoisonAdvertisement pins the ordering with a zero GC
// interval: even when the route is GC-eligible the instant it expires,
// the metric-16 advertisement must still go out before deletion.
func TestGCWaitsForPoisonAdvertisement(t *testing.T) {
	const timeout = 4
	eng, _ := timerEngine(t, 1000, timeout, 0)

	eng.Tick(timeout)
	if eng.RouteCount() != 1 {
		t.Fatal("route GCed in the same tick as its expiry, before the poison advertisement")
	}
	if got := poisonedRTEs(eng.Collect()); got != 1 {
		t.Fatalf("expiry advertised %d poison RTEs, want 1", got)
	}
	eng.Tick(timeout + 1)
	if eng.RouteCount() != 0 {
		t.Fatal("advertised poisoned route not GCed with a zero GC interval")
	}
}

// TestTimeoutRefreshSemantics checks both directions of the RFC 2080
// same-gateway rule: a reachable-metric update restarts the timeout,
// while a metric-16 update poisons the route immediately instead of
// keeping it alive.
func TestTimeoutRefreshSemantics(t *testing.T) {
	const (
		timeout = 6
		gc      = 50
	)
	refresh := func(t *testing.T, eng *ripng.Engine, metric uint8) {
		t.Helper()
		if err := eng.Receive(0, timerGW, ripng.Packet{
			Command: ripng.CommandResponse,
			RTEs:    []ripng.RTE{{Prefix: timerPrefix, Metric: metric}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("reachable-refreshes", func(t *testing.T) {
		eng, tbl := timerEngine(t, 1000, timeout, gc)
		eng.Tick(4)
		refresh(t, eng, 1) // same gateway, still metric 2: restart timeout
		for now := ripng.Clock(5); now < 4+timeout; now++ {
			eng.Tick(now)
			if tbl.Len() != 1 {
				t.Fatalf("tick %d: refreshed route expired on the original deadline", now)
			}
		}
		eng.Tick(4 + timeout)
		if tbl.Len() != 0 {
			t.Fatal("refreshed route did not expire at its restarted deadline")
		}
	})

	t.Run("poison-does-not-refresh", func(t *testing.T) {
		eng, tbl := timerEngine(t, 1000, timeout, gc)
		eng.Tick(2)
		refresh(t, eng, ripng.Infinity) // the gateway withdraws the route
		if tbl.Len() != 0 {
			t.Fatal("same-gateway metric-16 update did not poison the route immediately")
		}
		if eng.RouteCount() != 1 {
			t.Fatal("withdrawn route missing from protocol state (GC hold-down)")
		}
		if got := poisonedRTEs(eng.Collect()); got == 0 {
			eng.Tick(3)
			if got := poisonedRTEs(eng.Collect()); got != 1 {
				t.Fatalf("withdrawal advertised %d poison RTEs, want 1", got)
			}
		}
	})
}

// TestExpiryDrivenBySimulatedClock jumps the clock in large steps: all
// aging must key off the Tick argument, never off tick count or wall
// time. One Tick far past the deadline both expires and (a later Tick)
// garbage-collects the route.
func TestExpiryDrivenBySimulatedClock(t *testing.T) {
	const (
		timeout = 5
		gc      = 3
	)
	eng, tbl := timerEngine(t, 1000, timeout, gc)

	eng.Tick(100) // one jump far past the timeout
	if tbl.Len() != 0 {
		t.Fatal("clock jump past the timeout left the route in the FIB")
	}
	if got := poisonedRTEs(eng.Collect()); got != 1 {
		t.Fatalf("clock jump advertised %d poison RTEs, want 1", got)
	}
	if eng.RouteCount() != 1 {
		t.Fatal("route GCed in the same jump that expired it")
	}
	eng.Tick(200) // second jump far past the GC deadline
	if eng.RouteCount() != 0 {
		t.Fatal("clock jump past the GC deadline left protocol state behind")
	}
}

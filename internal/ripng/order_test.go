package ripng

import (
	"math/rand"
	"slices"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/rtable"
)

// checkOrder asserts the route store's invariants: strictly sorted by
// (address, length) — hence duplicate-free — counted by RouteCount, the
// changed counter equal to the number of flagged routes, and the
// forwarding table exactly the reachable subset.
func checkOrder(t *testing.T, e *Engine, step int) {
	t.Helper()
	flagged := 0
	want := map[bits.Prefix]*ripRoute{}
	for i, r := range e.order {
		if i > 0 {
			p := e.order[i-1].prefix
			if c := p.Addr.Cmp(r.prefix.Addr); c > 0 || c == 0 && p.Len >= r.prefix.Len {
				t.Fatalf("step %d: order[%d]=%v not before order[%d]=%v", step, i-1, p, i, r.prefix)
			}
		}
		if r.changed {
			flagged++
		}
		if r.metric < Infinity {
			want[r.prefix] = r
		}
	}
	if e.RouteCount() != len(e.order) {
		t.Fatalf("step %d: RouteCount %d, len(order) %d", step, e.RouteCount(), len(e.order))
	}
	if e.changed != flagged {
		t.Fatalf("step %d: changed counter %d, %d routes flagged", step, e.changed, flagged)
	}
	got := e.table.Routes()
	if len(got) != len(want) {
		t.Fatalf("step %d: table has %d routes, order has %d reachable", step, len(got), len(want))
	}
	for _, g := range got {
		r, ok := want[g.Prefix]
		if !ok || g.Metric != r.metric || g.Iface != r.iface || g.NextHop != r.nextHop || g.Tag != r.tag {
			t.Fatalf("step %d: table route %+v does not match order entry %+v", step, g, r)
		}
	}
}

// Seeded random AddDirect/Receive/Tick sequences over a small prefix
// pool, so every path is hit many times: first learn, better gateway,
// same-gateway poison, timeout, GC, re-learn after GC, AddDirect over a
// learned (and over a flagged) route, specific requests for present and
// absent prefixes.
func TestOrderInvariantsUnderRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(t, 3)
		e.SetTimers(7, 12, 5)
		pool := make([]bits.Prefix, 24)
		for i := range pool {
			// Shared addresses at two lengths exercise the length tiebreak.
			pool[i] = bits.MakePrefix(bits.Word128{Hi: 0x20010db8<<32 | uint64(i/2)<<16}, 48+16*(i%2))
		}
		now := Clock(0)
		var learned, collected, poisoned bool
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op == 0:
				if err := e.AddDirect(pool[rng.Intn(len(pool))], rng.Intn(3)); err != nil {
					t.Fatal(err)
				}
			case op < 6:
				p := Packet{Command: CommandResponse}
				for n := 1 + rng.Intn(6); n > 0; n-- {
					p.RTEs = append(p.RTEs, RTE{
						Prefix: pool[rng.Intn(len(pool))],
						Metric: uint8(1 + rng.Intn(Infinity)),
						Tag:    uint16(rng.Intn(3)),
					})
				}
				if err := e.Receive(rng.Intn(3), ll(uint64(40+rng.Intn(2))), p); err != nil {
					t.Fatal(err)
				}
			case op == 6:
				req := Packet{Command: CommandRequest, RTEs: []RTE{
					{Prefix: pool[rng.Intn(len(pool))], Metric: 1},
					{Prefix: pfx("2001:db8:ffff::/48"), Metric: 1},
				}}
				if err := e.Receive(0, ll(50), req); err != nil {
					t.Fatal(err)
				}
			default:
				now += Clock(rng.Intn(4))
				before := e.RouteCount()
				e.Tick(now)
				collected = collected || e.RouteCount() < before
			}
			learned = learned || e.RouteCount() > 0
			for _, r := range e.order {
				poisoned = poisoned || r.metric >= Infinity
			}
			checkOrder(t, e, step)
			e.Collect()
		}
		if !learned || !poisoned || !collected {
			t.Errorf("seed %d: learned=%v poisoned=%v collected=%v — sequence too tame", seed, learned, poisoned, collected)
		}
	}
}

// A response in the engine's own order is found by the one-slot hint,
// not by bisection; a stale hint (after GC shrank the array) is only
// ever a miss.
func TestHintFollowsNeighbourOrder(t *testing.T) {
	e := newTestEngine(t, 2)
	e.SetTimers(30, 10, 0)
	var resp Packet
	resp.Command = CommandResponse
	for i := 0; i < 20; i++ {
		resp.RTEs = append(resp.RTEs, RTE{Prefix: stubN(i), Metric: 2})
	}
	if err := e.Receive(0, ll(9), resp); err != nil {
		t.Fatal(err)
	}
	if err := e.Receive(0, ll(9), resp); err != nil {
		t.Fatal(err)
	}
	if e.hint != len(e.order) {
		t.Errorf("hint = %d after an in-order response, want %d", e.hint, len(e.order))
	}
	e.Tick(5)  // triggered update clears the flags
	e.Tick(10) // all time out: poisoned, and the poison advertised
	e.Tick(11) // collected
	if e.RouteCount() != 0 {
		t.Fatalf("RouteCount = %d after GC, want 0", e.RouteCount())
	}
	if i, ok := e.find(stubN(3)); ok || i != 0 {
		t.Errorf("find on the emptied store = %d, %v", i, ok)
	}
	checkOrder(t, e, 0)
}

func stubN(i int) bits.Prefix {
	return bits.MakePrefix(bits.Word128{Hi: 0x20010db8<<32 | uint64(i)<<16}, 48)
}

// RFC 2080 §2.4.1: "If there are no entries, no response is given."
func TestEmptyRequestGetsNoReply(t *testing.T) {
	e := newTestEngine(t, 1)
	if err := e.AddDirect(pfx("2001:db8:aaaa::/48"), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Receive(0, ll(2), Packet{Command: CommandRequest}); err != nil {
		t.Fatal(err)
	}
	if out := e.Collect(); len(out) != 0 {
		t.Fatalf("empty request answered with %+v", out)
	}
	if _, requests, _ := e.Stats(); requests != 1 {
		t.Errorf("requestsIn = %d, want 1", requests)
	}
}

// Packets cut from one exported slice must not be able to grow into
// each other.
func TestQueuedPacketsAreCapped(t *testing.T) {
	e := newTestEngine(t, 1)
	for i := 0; i < MaxRTEsPerPacket+5; i++ {
		if err := e.AddDirect(stubN(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Receive(0, ll(2), WholeTableRequest()); err != nil {
		t.Fatal(err)
	}
	out := e.Collect()
	if len(out) != 2 {
		t.Fatalf("%d packets, want 2", len(out))
	}
	first, firstPoison := out[1].Pkt.RTEs[0], out[1].PoisonOn[0]
	_ = append(out[0].Pkt.RTEs, RTE{Metric: 9})
	_ = append(out[0].PoisonOn, 7)
	if out[1].Pkt.RTEs[0] != first || out[1].PoisonOn[0] != firstPoison {
		t.Error("append to the first packet overwrote the second")
	}
}

// A batch from Collect stays intact until the engine's next Collect,
// whatever the engine queues meanwhile: answers to requests, triggered
// updates provoked by a response, and a periodic update.
func TestCollectBatchStableUntilNextCollect(t *testing.T) {
	e := newTestEngine(t, 2)
	learned := Packet{Command: CommandResponse}
	for i := 0; i < MaxRTEsPerPacket+5; i++ {
		learned.RTEs = append(learned.RTEs, RTE{Prefix: stubN(i), Metric: 1})
	}
	if err := e.Receive(0, ll(2), learned); err != nil {
		t.Fatal(err)
	}
	// Metric 2, poisoned on interface 0.
	if err := e.Receive(1, ll(9), WholeTableRequest()); err != nil {
		t.Fatal(err)
	}
	batch := e.Collect()
	if len(batch) != 2 {
		t.Fatalf("%d packets, want 2", len(batch))
	}
	want := make([]OutPacket, len(batch))
	for i, op := range batch {
		want[i] = op
		want[i].Pkt.RTEs = slices.Clone(op.Pkt.RTEs)
		want[i].PoisonOn = slices.Clone(op.PoisonOn)
	}

	// Every export queued from here on differs from the batch in its
	// first entries: the same gateway re-advertises the routes at metric
	// 6 before the first answer, and a better gateway on interface 1 then
	// takes them over (metric 2, poisoned on interface 1) before the
	// triggered and periodic updates. A chunk handed out again before the
	// next Collect, in whatever order, is overwritten with other bytes.
	relearn := func(iface int, src ipv6.Addr, metric uint8) {
		t.Helper()
		p := Packet{Command: CommandResponse, RTEs: slices.Clone(learned.RTEs)}
		for i := range p.RTEs {
			p.RTEs[i].Metric = metric
		}
		if err := e.Receive(iface, src, p); err != nil {
			t.Fatal(err)
		}
	}
	relearn(0, ll(2), 5)
	if err := e.Receive(0, ll(2), WholeTableRequest()); err != nil {
		t.Fatal(err)
	}
	relearn(1, ll(9), 1)
	e.Tick(DefaultUpdateSeconds)

	for i, op := range batch {
		if op.Iface != want[i].Iface || op.Dst != want[i].Dst || op.Pkt.Command != want[i].Pkt.Command ||
			!slices.Equal(op.Pkt.RTEs, want[i].Pkt.RTEs) || !slices.Equal(op.PoisonOn, want[i].PoisonOn) {
			t.Fatalf("packet %d of the first batch changed before the next Collect", i)
		}
	}
	if next := e.Collect(); len(next) == 0 {
		t.Fatal("the second batch is empty")
	}
}

func TestTickAllocs(t *testing.T) {
	e := NewEngine(rtable.NewSequential(), []Iface{{LinkLocal: ll(1), Cost: 1}, {LinkLocal: ll(2), Cost: 1}}, 0)
	for i := 0; i < 98; i++ {
		if err := e.Receive(0, ll(9), Packet{Command: CommandResponse, RTEs: []RTE{{Prefix: stubN(i), Metric: 3}}}); err != nil {
			t.Fatal(err)
		}
	}
	e.Tick(1) // triggered update: flags cleared
	e.Collect()
	now := Clock(1)
	if got := testing.AllocsPerRun(20, func() { now++; e.Tick(now) }); got != 0 {
		t.Errorf("idle Tick allocates %v times, want 0", got)
	}
	if e.RouteCount() != 98 || len(e.Collect()) != 0 {
		t.Error("idle ticks changed state")
	}
}

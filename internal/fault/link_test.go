package fault

import (
	"bytes"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/ripng"
	"taco/internal/rtable"
)

func TestLinkFlapSchedule(t *testing.T) {
	l := NewLink(1)
	l.Schedule(10, false)
	l.Schedule(20, true)
	l.Schedule(5, false) // out-of-order insert must still sort
	l.Schedule(7, true)
	for _, tc := range []struct {
		now  int64
		want bool
	}{{0, true}, {5, false}, {6, false}, {7, true}, {9, true}, {10, false}, {19, false}, {20, true}, {1000, true}} {
		if got := l.Up(tc.now); got != tc.want {
			t.Errorf("Up(%d) = %v, want %v", tc.now, got, tc.want)
		}
	}
	if _, ok := l.Transmit(12, []byte{1}); ok {
		t.Error("frame crossed a down link")
	}
	if _, ok := l.Transmit(25, []byte{1}); !ok {
		t.Error("frame lost on an up link with no loss rate")
	}
	st := l.Stats()
	if st.LostDown != 1 || st.Sent != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkLossAndCorruptionDeterministic(t *testing.T) {
	run := func() (LinkStats, [][]byte) {
		l := NewLink(42)
		l.Loss = 0.3
		l.Corrupt = 0.3
		var out [][]byte
		for i := 0; i < 300; i++ {
			if d, ok := l.Transmit(int64(i), []byte{0xaa, 0xbb, 0xcc, 0xdd}); ok {
				out = append(out, d)
			}
		}
		return l.Stats(), out
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1 != s2 {
		t.Fatalf("same-seed links diverged: %+v vs %+v", s1, s2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("deliveries %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if !bytes.Equal(o1[i], o2[i]) {
			t.Fatalf("delivery %d differs", i)
		}
	}
	if s1.LostRandom == 0 || s1.Corrupted == 0 {
		t.Errorf("faults never fired at 0.3: %+v", s1)
	}
}

func TestLinkCorruptionCopies(t *testing.T) {
	l := NewLink(3)
	l.Corrupt = 1 // always corrupt
	orig := []byte{0x11, 0x22, 0x33, 0x44}
	keep := append([]byte(nil), orig...)
	d, ok := l.Transmit(0, orig)
	if !ok {
		t.Fatal("corruption lost the frame")
	}
	if !bytes.Equal(orig, keep) {
		t.Error("Transmit mutated the caller's bytes")
	}
	if bytes.Equal(d, orig) {
		t.Error("corrupted copy equals the original")
	}
}

func TestNilLinkIsPerfect(t *testing.T) {
	var l *Link
	d, ok := l.Transmit(0, []byte{1})
	if !ok || len(d) != 1 {
		t.Error("nil link dropped a frame")
	}
}

// TestPoisonStormUnreachesRoutes: a metric-16 flood from the gateway a
// route was learned from must poison exactly those routes — the engine
// believes its gateway, removes the prefixes from the forwarding table,
// and keeps routes from other neighbours intact.
func TestPoisonStormUnreachesRoutes(t *testing.T) {
	tbl := rtable.NewSequential()
	e := ripng.NewEngine(tbl, []ripng.Iface{
		{LinkLocal: ipv6.MustParseAddr("fe80::1")},
		{LinkLocal: ipv6.MustParseAddr("fe80::2")},
	}, 0)
	peer := ipv6.MustParseAddr("fe80::aa")
	other := ipv6.MustParseAddr("fe80::bb")

	var stormPrefixes []bits.Prefix
	for i := 0; i < ripng.MaxRTEsPerPacket+10; i++ { // forces a 2-packet storm
		addr := ipv6.MustParseAddr("2001:db8::")
		addr.Lo |= uint64(i+1) << 32
		stormPrefixes = append(stormPrefixes, bits.MakePrefix(addr, 96))
	}
	learn := ripng.Packet{Command: ripng.CommandResponse}
	for _, pfx := range stormPrefixes {
		learn.RTEs = append(learn.RTEs, ripng.RTE{Prefix: pfx, Metric: 2})
	}
	// The engine caps what one response may carry, so teach in chunks.
	for _, chunk := range PoisonStorm(stormPrefixes) { // reuse the chunking
		for i := range chunk.RTEs {
			chunk.RTEs[i].Metric = 2
		}
		if err := e.Receive(0, peer, chunk); err != nil {
			t.Fatal(err)
		}
	}
	keeper := bits.MakePrefix(ipv6.MustParseAddr("2001:db8:ffff::"), 48)
	if err := e.Receive(1, other, ripng.Packet{Command: ripng.CommandResponse,
		RTEs: []ripng.RTE{{Prefix: keeper, Metric: 3}}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(stormPrefixes[0].Addr); !ok {
		t.Fatal("route not installed before the storm")
	}

	storm := PoisonStorm(stormPrefixes)
	if len(storm) != 2 {
		t.Fatalf("storm split into %d packets, want 2", len(storm))
	}
	for _, p := range storm {
		if err := e.Receive(0, peer, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, pfx := range stormPrefixes {
		if _, ok := tbl.Lookup(pfx.Addr); ok {
			t.Fatalf("prefix %v survived the poison storm", pfx)
		}
	}
	if _, ok := tbl.Lookup(keeper.Addr); !ok {
		t.Error("storm from one peer poisoned another peer's route")
	}
}

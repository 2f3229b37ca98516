package linecard

import (
	"encoding/binary"
	"testing"

	"taco/internal/ipv6"
)

// v6Frame marshals a minimal valid IPv6 frame with the given payload
// size and hop limit 64.
func v6Frame(payload int) []byte {
	h := ipv6.Header{
		PayloadLen: uint16(payload),
		NextHeader: ipv6.ProtoNoNext,
		HopLimit:   64,
		Src:        ipv6.MustParseAddr("2001:db8::1"),
		Dst:        ipv6.MustParseAddr("2001:db8::2"),
	}
	return append(h.Marshal(nil), make([]byte, payload)...)
}

// TestDeliverFrameChecks drives each card-level rejection path and
// checks the drop lands under the right DropReason while judgeable-only
// -by-the-machine frames (runts, wrong version) still queue.
func TestDeliverFrameChecks(t *testing.T) {
	c := New(0)

	if c.Deliver(Datagram{Data: make([]byte, MaxFrameBytes+1)}) {
		t.Error("oversize frame accepted")
	}
	if got := c.Stats().Drops[ipv6.DropOversize]; got != 1 {
		t.Errorf("oversize drops = %d, want 1", got)
	}

	lying := v6Frame(16)
	binary.BigEndian.PutUint16(lying[4:6], 1000) // claims more than it carries
	if c.Deliver(Datagram{Data: lying}) {
		t.Error("length-mismatch frame accepted")
	}
	if got := c.Stats().Drops[ipv6.DropLengthMismatch]; got != 1 {
		t.Errorf("length-mismatch drops = %d, want 1", got)
	}

	// Runts and non-v6 frames are the forwarding engine's to judge.
	if !c.Deliver(Datagram{Data: []byte{0x60, 0x00}}) {
		t.Error("runt rejected at the card")
	}
	v4 := v6Frame(8)
	v4[0] = 4 << 4
	if !c.Deliver(Datagram{Data: v4}) {
		t.Error("non-v6 frame rejected at the card")
	}
	if !c.Deliver(Datagram{Data: v6Frame(64)}) {
		t.Error("valid frame rejected")
	}

	st := c.Stats()
	if st.Received != 3 {
		t.Errorf("Received = %d, want 3", st.Received)
	}
	// Frame-check rejections are not queue-overflow input drops.
	if st.DroppedIn != 0 {
		t.Errorf("DroppedIn = %d, want 0", st.DroppedIn)
	}
	if got := st.Drops.Total(); got != 2 {
		t.Errorf("total drops = %d, want 2", got)
	}
}

// TestPushOutOverflowAccounting fills the output queue and checks the
// overflow is fully observable: PushOut returns false, DroppedOut
// counts every excess datagram, the shared taxonomy records them as
// queue-overflow, and the high-water mark pins at the bound.
func TestPushOutOverflowAccounting(t *testing.T) {
	c := New(3)
	for i := 0; i < MaxQueue; i++ {
		if !c.PushOut(Datagram{Seq: int64(i)}) {
			t.Fatalf("PushOut %d failed before limit", i)
		}
	}
	const excess = 5
	for i := 0; i < excess; i++ {
		if c.PushOut(Datagram{}) {
			t.Fatal("PushOut past limit accepted")
		}
	}
	st := c.Stats()
	if st.Transmitted != MaxQueue {
		t.Errorf("Transmitted = %d, want %d", st.Transmitted, MaxQueue)
	}
	if st.DroppedOut != excess {
		t.Errorf("DroppedOut = %d, want %d", st.DroppedOut, excess)
	}
	if got := st.Drops[ipv6.DropQueueOverflow]; got != excess {
		t.Errorf("queue-overflow drops = %d, want %d", got, excess)
	}
	if st.MaxOutDepth != MaxQueue {
		t.Errorf("MaxOutDepth = %d, want %d", st.MaxOutDepth, MaxQueue)
	}
	// The queued traffic survives the overflow untouched.
	if got := len(c.DrainOutput()); got != MaxQueue {
		t.Errorf("%d datagrams queued, want %d", got, MaxQueue)
	}
}

// TestInputOverflowSharesTaxonomy: input-queue overflow counts under
// DropQueueOverflow alongside DroppedIn, so the per-reason export sees
// both queue directions in one vocabulary.
func TestInputOverflowSharesTaxonomy(t *testing.T) {
	c := New(0)
	for i := 0; i < MaxQueue+3; i++ {
		c.Deliver(Datagram{})
	}
	st := c.Stats()
	if st.DroppedIn != 3 {
		t.Errorf("DroppedIn = %d, want 3", st.DroppedIn)
	}
	if got := st.Drops[ipv6.DropQueueOverflow]; got != 3 {
		t.Errorf("queue-overflow drops = %d, want 3", got)
	}
}

// TestCountDrop: the router's drop audit charges machine-level drops to
// the arrival card after a run; the card just accumulates them.
func TestCountDrop(t *testing.T) {
	c := New(1)
	c.CountDrop(ipv6.DropBadVersion)
	c.CountDrop(ipv6.DropBadVersion)
	c.CountDrop(ipv6.DropNoRoute)
	c.CountDrop(ipv6.DropNone) // ignored: not a drop
	st := c.Stats()
	if got := st.Drops[ipv6.DropBadVersion]; got != 2 {
		t.Errorf("bad-version = %d, want 2", got)
	}
	if got := st.Drops[ipv6.DropNoRoute]; got != 1 {
		t.Errorf("no-route = %d, want 1", got)
	}
	if got := st.Drops.Total(); got != 3 {
		t.Errorf("total = %d, want 3", got)
	}
	c.Reset()
	if got := c.Stats().Drops.Total(); got != 0 {
		t.Errorf("drops survived Reset: %d", got)
	}
}

// TestForEachOutput visits oldest-first without draining.
func TestForEachOutput(t *testing.T) {
	c := New(2)
	for i := int64(0); i < 4; i++ {
		if !c.PushOut(Datagram{Seq: i}) {
			t.Fatal("PushOut failed")
		}
	}
	var seen []int64
	c.ForEachOutput(func(d Datagram) { seen = append(seen, d.Seq) })
	if len(seen) != 4 {
		t.Fatalf("visited %d, want 4", len(seen))
	}
	for i, s := range seen {
		if s != int64(i) {
			t.Errorf("visit %d saw seq %d", i, s)
		}
	}
	if got := c.DrainOutput(); len(got) != 4 {
		t.Errorf("drain after visit = %d datagrams: ForEachOutput drained the queue", len(got))
	}
}

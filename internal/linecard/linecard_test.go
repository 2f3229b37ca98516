package linecard

import "testing"

func TestFIFOOrder(t *testing.T) {
	c := New(0)
	for i := int64(0); i < 5; i++ {
		if !c.Deliver(Datagram{Seq: i}) {
			t.Fatal("deliver failed")
		}
	}
	for i := int64(0); i < 5; i++ {
		d, ok := c.ReadInput()
		if !ok || d.Seq != i {
			t.Fatalf("read %d: got %+v ok=%v", i, d, ok)
		}
	}
	if _, ok := c.ReadInput(); ok {
		t.Error("read from empty queue succeeded")
	}
}

func TestOverflowDrops(t *testing.T) {
	c := New(1)
	for i := 0; i < MaxQueue; i++ {
		if !c.Deliver(Datagram{}) {
			t.Fatalf("deliver %d failed before limit", i)
		}
	}
	if c.Deliver(Datagram{}) {
		t.Error("deliver past limit accepted")
	}
	st := c.Stats()
	if st.Received != MaxQueue || st.DroppedIn != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestOverflowVisibleInStats drives the input queue past MaxQueue and
// checks the overload is observable in the counters: the high-water
// mark pins at the queue bound and every excess datagram is counted as
// dropped.
func TestOverflowVisibleInStats(t *testing.T) {
	c := New(0)
	const excess = 7
	for i := 0; i < MaxQueue+excess; i++ {
		c.Deliver(Datagram{})
	}
	st := c.Stats()
	if st.MaxInDepth != MaxQueue {
		t.Errorf("MaxInDepth = %d, want %d", st.MaxInDepth, MaxQueue)
	}
	if st.DroppedIn != excess {
		t.Errorf("DroppedIn = %d, want %d", st.DroppedIn, excess)
	}
	if st.Received != MaxQueue {
		t.Errorf("Received = %d, want %d", st.Received, MaxQueue)
	}

	// The high-water mark survives draining…
	for c.InputPending() {
		c.ReadInput()
	}
	if st := c.Stats(); st.MaxInDepth != MaxQueue {
		t.Errorf("MaxInDepth after drain = %d, want %d", st.MaxInDepth, MaxQueue)
	}
	// …and Reset clears it.
	c.Reset()
	if st := c.Stats(); st.MaxInDepth != 0 || st.DroppedIn != 0 {
		t.Errorf("stats after Reset = %+v", st)
	}
}

// TestMaxDepthTracksHighWater checks MaxInDepth/MaxOutDepth follow the
// deepest observed queue, not the current one.
func TestMaxDepthTracksHighWater(t *testing.T) {
	c := New(1)
	for i := 0; i < 5; i++ {
		c.Deliver(Datagram{})
	}
	c.ReadInput()
	c.ReadInput()
	c.Deliver(Datagram{}) // depth back to 4; high water stays 5
	if st := c.Stats(); st.MaxInDepth != 5 {
		t.Errorf("MaxInDepth = %d, want 5", st.MaxInDepth)
	}
	for i := 0; i < 3; i++ {
		if !c.PushOut(Datagram{}) {
			t.Fatal("output queue full")
		}
	}
	c.DrainOutput()
	if !c.PushOut(Datagram{}) {
		t.Fatal("output queue full")
	}
	if st := c.Stats(); st.MaxOutDepth != 3 {
		t.Errorf("MaxOutDepth = %d, want 3", st.MaxOutDepth)
	}
}

func TestOutputQueue(t *testing.T) {
	c := New(2)
	for i := int64(0); i < 3; i++ {
		if !c.PushOut(Datagram{Seq: i}) {
			t.Fatal("output queue full")
		}
	}
	out := c.DrainOutput()
	if len(out) != 3 || out[0].Seq != 0 || out[2].Seq != 2 {
		t.Errorf("drained = %+v", out)
	}
	if len(c.DrainOutput()) != 0 {
		t.Error("drain did not clear queue")
	}
}

func TestOutputOverflow(t *testing.T) {
	c := New(0)
	for i := 0; i < MaxQueue; i++ {
		if !c.PushOut(Datagram{}) {
			t.Fatal("output queue full")
		}
	}
	if c.PushOut(Datagram{}) {
		t.Error("output overflow accepted")
	}
}

func TestBankScan(t *testing.T) {
	b := NewBank(4)
	if b.Len() != 4 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.AnyPending(); got != -1 {
		t.Errorf("AnyPending on idle bank = %d", got)
	}
	b.Card(2).Deliver(Datagram{Seq: 1})
	b.Card(3).Deliver(Datagram{Seq: 2})
	if got := b.AnyPending(); got != 2 {
		t.Errorf("AnyPending = %d, want 2 (lowest)", got)
	}
	b.Card(2).ReadInput()
	if got := b.AnyPending(); got != 3 {
		t.Errorf("AnyPending = %d, want 3", got)
	}
}

func TestReset(t *testing.T) {
	b := NewBank(2)
	b.Card(0).Deliver(Datagram{})
	if !b.Card(1).PushOut(Datagram{}) {
		t.Fatal("output queue full")
	}
	b.Reset()
	if b.AnyPending() != -1 || len(b.Card(1).DrainOutput()) != 0 {
		t.Error("Reset left state")
	}
	if st := b.Card(0).Stats(); st.Received != 0 {
		t.Error("Reset left stats")
	}
}

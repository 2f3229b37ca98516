// Package linecard models the network line cards of the paper's Figure 1
// router: per-interface cards that deliver fully assembled, decapsulated
// IPv6 datagrams into input registers readable by the TACO processor, and
// accept outgoing datagrams through output registers, handling
// fragmentation/encapsulation and ARP themselves.
//
// The model is intentionally behavioural — the paper treats line cards as
// off-the-shelf parts (Intel IFX18103, Cisco GigE) and evaluates only the
// TACO processor between them.
package linecard

import (
	"taco/internal/ipv6"
	"taco/internal/obs"
)

// Datagram is a fully assembled IPv6 datagram (header plus payload) as a
// byte slice, paired with bookkeeping for tests and statistics.
type Datagram struct {
	Data []byte
	// Seq is a workload-assigned sequence number used by the differential
	// tests to match packets across router implementations.
	Seq int64
}

// Card is one line card: an input queue of datagrams received from the
// attached network and an output queue of datagrams to transmit.
//
// The input queue is head-indexed — in[inHead:] is the pending traffic —
// so consuming datagrams reclaims the backing array's capacity once the
// queue drains instead of allocating a fresh array per batch.
type Card struct {
	index  int
	in     []Datagram
	inHead int
	out    []Datagram

	// bank, when the card belongs to a Bank, receives pending-count
	// updates so Bank.AnyPending can answer "nothing pending" — the
	// common case the processor polls every cycle — in O(1).
	bank *Bank

	stats Stats
}

// Stats counts card activity.
type Stats struct {
	Received    int64 // datagrams delivered into the input queue
	Consumed    int64 // datagrams read by the processor
	Transmitted int64 // datagrams written by the processor
	DroppedIn   int64 // input datagrams dropped on overflow
	DroppedOut  int64 // output datagrams dropped on overflow

	// MaxInDepth and MaxOutDepth record the deepest observed input and
	// output queues — the card's high-water marks under the simulated
	// load, reported alongside the router's metrics.
	MaxInDepth  int
	MaxOutDepth int

	// Drops counts every datagram this card discarded — or that the
	// router's drop audit attributed to it — by ipv6.DropReason, the
	// fault subsystem's shared taxonomy.
	Drops obs.DropCounters
}

// Backlog returns the datagrams still waiting in the input queue — the
// signal the router's watchdog reads to classify a stall as queue
// backpressure.
func (s Stats) Backlog() int64 { return s.Received - s.Consumed }

// MaxQueue bounds each queue; a full input queue drops (as real cards
// do under overload).
const MaxQueue = 4096

// MaxFrameBytes is the card's MTU contract: the largest frame the card
// accepts and the processor's datagram memory slots are sized for
// (standard 1500-byte MTU plus headers, rounded up). Oversize frames
// are dropped at delivery, as a real NIC drops giants.
const MaxFrameBytes = 2048

// New returns a card with the given interface index.
func New(index int) *Card { return &Card{index: index} }

// Deliver places a received datagram in the input queue (called by the
// workload/network side). It reports whether the datagram was queued.
//
// Before queueing, the card applies its link-layer frame checks:
// oversize frames (beyond MaxFrameBytes) and IPv6 frames whose Payload
// Length field overruns the received bytes are dropped and counted by
// reason. Frames the card cannot judge — runts, non-IPv6 version
// nibbles — pass through for the forwarding engine to classify.
func (c *Card) Deliver(d Datagram) bool {
	if r := ipv6.FrameCheck(d.Data, MaxFrameBytes); r != ipv6.DropNone {
		c.stats.Drops.Add(r)
		return false
	}
	if c.InputLen() >= MaxQueue {
		c.stats.DroppedIn++
		c.stats.Drops.Add(ipv6.DropQueueOverflow)
		return false
	}
	if c.inHead == len(c.in) {
		// Queue fully drained: rewind to reuse the array's capacity.
		c.in, c.inHead = c.in[:0], 0
		if c.bank != nil {
			c.bank.pending++
		}
	}
	c.in = append(c.in, d)
	c.stats.Received++
	if depth := c.InputLen(); depth > c.stats.MaxInDepth {
		c.stats.MaxInDepth = depth
	}
	return true
}

// InputPending reports whether a datagram is waiting.
func (c *Card) InputPending() bool { return c.inHead < len(c.in) }

// InputLen returns the input queue depth.
func (c *Card) InputLen() int { return len(c.in) - c.inHead }

// ReadInput pops the oldest pending datagram (called by the processor's
// preprocessing unit).
func (c *Card) ReadInput() (Datagram, bool) {
	if !c.InputPending() {
		return Datagram{}, false
	}
	d := c.in[c.inHead]
	c.in[c.inHead] = Datagram{} // release the data reference
	c.inHead++
	if c.inHead == len(c.in) && c.bank != nil {
		c.bank.pending--
	}
	c.stats.Consumed++
	if c.bank != nil && c.bank.rec != nil {
		c.bank.rec.Record(obs.RecEvent{Kind: obs.EvPop, PC: -1,
			Src: int32(c.index), Value: uint32(d.Seq)})
	}
	return d, true
}

// PushOut enqueues a datagram for transmission (called by the
// processor's postprocessing unit and the control plane). A full
// output queue drops the datagram — counted in DroppedOut and under
// DropQueueOverflow, mirroring the input side — and returns false.
func (c *Card) PushOut(d Datagram) bool {
	if len(c.out) >= MaxQueue {
		c.stats.DroppedOut++
		c.stats.Drops.Add(ipv6.DropQueueOverflow)
		return false
	}
	c.out = append(c.out, d)
	c.stats.Transmitted++
	if depth := len(c.out); depth > c.stats.MaxOutDepth {
		c.stats.MaxOutDepth = depth
	}
	if c.bank != nil && c.bank.rec != nil {
		c.bank.rec.Record(obs.RecEvent{Kind: obs.EvPush, PC: -1,
			Src: int32(c.index), Value: uint32(d.Seq)})
	}
	return true
}

// CountDrop attributes a drop to this card (used by the router's drop
// audit, which discovers machine-level drops after a run and charges
// them to the arrival card).
func (c *Card) CountDrop(r ipv6.DropReason) { c.stats.Drops.Add(r) }

// ForEachOutput visits the queued outgoing datagrams oldest-first
// without draining them.
func (c *Card) ForEachOutput(fn func(Datagram)) {
	for _, d := range c.out {
		fn(d)
	}
}

// DrainOutput removes and returns every queued outgoing datagram (called
// by the network side / test harness).
func (c *Card) DrainOutput() []Datagram {
	out := c.out
	c.out = nil
	return out
}

// Stats returns a copy of the card's counters.
func (c *Card) Stats() Stats { return c.stats }

// Reset clears both queues and the statistics. Queue capacity is
// retained so a reset-per-batch harness does not reallocate. (DrainOutput
// hands its slice to the caller, so the output array is only reusable
// when it was never drained.)
func (c *Card) Reset() {
	if c.bank != nil && c.InputPending() {
		c.bank.pending--
	}
	clear(c.in)
	c.in, c.inHead = c.in[:0], 0
	clear(c.out)
	c.out = c.out[:0]
	c.stats = Stats{}
}

// Bank is the router's full set of line cards.
type Bank struct {
	cards []*Card
	// pending counts cards with input waiting, maintained on every
	// empty/non-empty input-queue transition, so a drained bank — the
	// preprocessing unit's settled state — is one compare (AnyPending).
	pending int
	// rec, when non-nil, receives push/pop flight-recorder events from
	// every card (stamped with the recorder's current machine cycle).
	// Sharing the machine's recorder puts DMA activity on the same
	// timeline as the moves that caused it.
	rec *obs.FlightRecorder
}

// SetRecorder attaches (or, with nil, detaches) a flight recorder that
// every card's ReadInput/PushOut feeds. The recorder is typically the
// machine's own, so line-card events interleave with move events in
// cycle order.
func (b *Bank) SetRecorder(r *obs.FlightRecorder) { b.rec = r }

// NewBank creates n cards with interface indices 0..n-1.
func NewBank(n int) *Bank {
	b := &Bank{cards: make([]*Card, n)}
	for i := range b.cards {
		b.cards[i] = New(i)
		b.cards[i].bank = b
	}
	return b
}

// Len returns the number of cards.
func (b *Bank) Len() int { return len(b.cards) }

// Card returns card i.
func (b *Bank) Card(i int) *Card { return b.cards[i] }

// AnyPending returns the lowest-numbered card with input pending, or -1 —
// the scan the preprocessing unit performs over the cards' status
// registers.
func (b *Bank) AnyPending() int {
	if b.pending == 0 {
		return -1
	}
	for i, c := range b.cards {
		if c.InputPending() {
			return i
		}
	}
	return -1
}

// Reset resets every card.
func (b *Bank) Reset() {
	for _, c := range b.cards {
		c.Reset()
	}
}

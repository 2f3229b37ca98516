package obs

import (
	"fmt"
	"io"
)

// FlightRecorder is the machine's black box: a bounded ring of
// cycle-level events — moves with source/destination socket and value,
// guard outcomes, FU triggers, control flow, line-card push/pop, the
// watchdog's stall verdict — retained so a failure's *history* survives
// the failure, not just its terminal snapshot.
//
// The recorder is built for the execution hot path: Record is a single
// ring store with no allocation and no branching beyond the wrap check,
// and a detached recorder (the default) costs the machine one nil check
// per move, exactly like a detached *Counters. Both the interpreter and
// the compiled fast path record natively at the same points, so an
// armed recorder observes a bit-identical event stream on either path —
// the property the divergence forensics lean on.
//
// The current cycle is stamped once per cycle via SetCycle; Record then
// tags every event with it, so event producers outside the step loop
// (the line cards, clocked inside the cycle) need no cycle plumbing.
type FlightRecorder struct {
	now   int64
	total uint64
	head  int
	buf   []RecEvent
}

// DefaultRecorderCap is the ring capacity used when callers pass a
// non-positive capacity: enough history to span several packets' worth
// of cycles on every paper configuration without measurable footprint.
const DefaultRecorderCap = 4096

// NewFlightRecorder returns a recorder retaining the last capacity
// events (DefaultRecorderCap when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &FlightRecorder{buf: make([]RecEvent, capacity)}
}

// RecEvent is one recorded event. The struct is fixed-size and flat so
// the ring is a single allocation and Record a run of field stores
// into the ring slot (see Record for why not one struct store). Socket
// references are SocketIDs (1-based, matching Machine.SocketName); a
// Src of -1 means an inlined immediate (Value then is the immediate).
// JSON keys are terse: bundles carry thousands of these.
type RecEvent struct {
	Cycle int64  `json:"c"`
	Value uint32 `json:"v"`
	PC    int32  `json:"pc"`
	Src   int32  `json:"s"`
	Dst   int32  `json:"d"`
	Bus   int16  `json:"b"`
	Kind  uint8  `json:"k"`
}

// Event kinds. One event is recorded per encoded move (its kind set by
// the destination class), plus out-of-band line-card and watchdog
// events.
const (
	// EvMove: an executed move into an operand or register socket.
	EvMove uint8 = iota
	// EvGuardFalse: an encoded move whose guard failed (Value is 0 —
	// the source was never read, exactly as the machine behaves).
	EvGuardFalse
	// EvTrigger: an executed move into a trigger socket — the FU starts
	// its operation this cycle.
	EvTrigger
	// EvJump: an executed move into nc.jmp (Value is the target PC).
	EvJump
	// EvHalt: an executed move into nc.halt.
	EvHalt
	// EvPush: a line card accepted an outgoing datagram (Src is the
	// interface index, Value the low bits of the sequence number).
	EvPush
	// EvPop: a line card's input descriptor was consumed by the
	// preprocessing unit (Src interface, Value sequence number).
	EvPop
	// EvStall: the watchdog fired; Value is the classified StallCause.
	EvStall

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvMove:       "move",
	EvGuardFalse: "guard-false",
	EvTrigger:    "trigger",
	EvJump:       "jump",
	EvHalt:       "halt",
	EvPush:       "push",
	EvPop:        "pop",
	EvStall:      "stall",
}

// EventKindName returns the kind's stable exposition name.
func EventKindName(k uint8) string {
	if k < numEventKinds {
		return eventKindNames[k]
	}
	return "unknown"
}

// SetCycle stamps the cycle tagged onto subsequent events. The step
// loops call it once per executed cycle, before any move records.
func (r *FlightRecorder) SetCycle(c int64) { r.now = c }

// Cycle returns the most recently stamped cycle.
func (r *FlightRecorder) Cycle() int64 { return r.now }

// Record stores one event, overwriting the oldest when full. The
// event's Cycle is filled from the recorder's current cycle stamp.
//
// The fields are written into the ring slot one by one. RecEvent has
// more fields than the compiler splits into registers, so storing the
// struct whole builds it on the stack with narrow stores and copies it
// out with two wide loads that cannot be store-forwarded: every event
// stalled on the copy, in the step loop of an armed machine.
func (r *FlightRecorder) Record(e RecEvent) {
	s := &r.buf[r.head]
	s.Cycle = r.now
	s.Value = e.Value
	s.PC = e.PC
	s.Src = e.Src
	s.Dst = e.Dst
	s.Bus = e.Bus
	s.Kind = e.Kind
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.total++
}

// Cap returns the ring capacity.
func (r *FlightRecorder) Cap() int { return len(r.buf) }

// Len returns the number of retained events (≤ Cap).
func (r *FlightRecorder) Len() int {
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// Total returns the number of events ever recorded since the last
// Reset, including those the ring has since overwritten.
func (r *FlightRecorder) Total() uint64 { return r.total }

// Dropped returns how many events the ring has overwritten.
func (r *FlightRecorder) Dropped() uint64 {
	if n := uint64(len(r.buf)); r.total > n {
		return r.total - n
	}
	return 0
}

// Tail returns the retained events oldest-first. It allocates; callers
// are failure and exposition paths, never the step loop.
func (r *FlightRecorder) Tail() []RecEvent {
	n := r.Len()
	out := make([]RecEvent, n)
	start := r.head - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		j := start + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		out[i] = r.buf[j]
	}
	return out
}

// Since visits, oldest first, the events recorded after a Total() mark
// — or the retained ones when the ring has already overwritten part of
// that span — without copying the ring. It is what a cycle-stepped
// driver calls between two cycles, so it must stay allocation-free.
func (r *FlightRecorder) Since(mark uint64, visit func(RecEvent)) {
	n := r.total - mark
	if c := uint64(len(r.buf)); n > c {
		n = c
	}
	i := r.head - int(n)
	if i < 0 {
		i += len(r.buf)
	}
	for ; n > 0; n-- {
		visit(r.buf[i])
		if i++; i == len(r.buf) {
			i = 0
		}
	}
}

// Reset clears the ring and the cycle stamp (capacity is retained).
func (r *FlightRecorder) Reset() {
	r.now = 0
	r.total = 0
	r.head = 0
}

// SocketLabel renders a RecEvent socket reference against a machine's
// socket-name table (index = SocketID-1, e.g. Machine.SocketNames).
func SocketLabel(id int32, names []string) string {
	switch {
	case id == -1:
		return "#imm"
	case id >= 1 && int(id) <= len(names):
		return names[id-1]
	default:
		return fmt.Sprintf("sock%d", id)
	}
}

// Format renders the event as one human-readable line using the given
// socket-name table (nil degrades to numeric socket references).
func (e RecEvent) Format(names []string) string {
	switch e.Kind {
	case EvMove, EvTrigger:
		return fmt.Sprintf("cycle %d pc %d bus %d: %s %s -> %s = %d",
			e.Cycle, e.PC, e.Bus, EventKindName(e.Kind),
			SocketLabel(e.Src, names), SocketLabel(e.Dst, names), e.Value)
	case EvGuardFalse:
		return fmt.Sprintf("cycle %d pc %d bus %d: guard-false %s -> %s",
			e.Cycle, e.PC, e.Bus, SocketLabel(e.Src, names), SocketLabel(e.Dst, names))
	case EvJump:
		return fmt.Sprintf("cycle %d pc %d bus %d: jump %s -> pc %d",
			e.Cycle, e.PC, e.Bus, SocketLabel(e.Src, names), e.Value)
	case EvHalt:
		return fmt.Sprintf("cycle %d pc %d bus %d: halt", e.Cycle, e.PC, e.Bus)
	case EvPush:
		return fmt.Sprintf("cycle %d: push iface %d seq %d", e.Cycle, e.Src, int32(e.Value))
	case EvPop:
		return fmt.Sprintf("cycle %d: pop iface %d seq %d", e.Cycle, e.Src, int32(e.Value))
	case EvStall:
		return fmt.Sprintf("cycle %d pc %d: stall (%s)", e.Cycle, e.PC, StallCause(e.Value))
	default:
		return fmt.Sprintf("cycle %d pc %d: unknown event kind %d", e.Cycle, e.PC, e.Kind)
	}
}

// WriteCycle prints one executed cycle's events, one Format line each —
// the per-cycle listing shared by tacoreplay -step and tacosim -trace.
// A cycle that recorded nothing (no move encoded) still gets a line.
func WriteCycle(w io.Writer, cycle int64, events []RecEvent, names []string) {
	if len(events) == 0 {
		fmt.Fprintf(w, "cycle %d: (no recorded events)\n", cycle)
		return
	}
	for _, e := range events {
		fmt.Fprintf(w, "  %s\n", e.Format(names))
	}
}

package obs

import "encoding/json"

// StallCause is the hazard/stall taxonomy: where cycles go when the
// machine is not making forward progress on useful moves. The scheduler
// charges statically resolved hazards (cycles a move had to wait before
// it could be placed); the router's watchdog charges the dynamic
// remainder when a run exhausts its budget.
type StallCause uint8

const (
	// StallBusConflict: every transport slot of the candidate cycle was
	// already occupied — the move waited for bus bandwidth.
	StallBusConflict StallCause = iota
	// StallSocketHazard: a register/operand dependence (RAW through a
	// register, WAW/WAR on a destination socket, operand sharing) forced
	// the move later.
	StallSocketHazard
	// StallFUBusy: the functional unit pipeline was occupied — trigger
	// ordering, unresolved results, or guard signals still in flight.
	StallFUBusy
	// StallQueueBackpressure: line-card descriptor queues were the
	// bottleneck — input parked at full preprocessor queues, or the run
	// stalled with descriptors still queued.
	StallQueueBackpressure
	// StallWatchdog: the watchdog fired with no more specific cause
	// attributable from machine state (e.g. a control-flow loop).
	StallWatchdog

	NumStallCauses
)

var stallCauseNames = [NumStallCauses]string{
	StallBusConflict:       "bus-conflict",
	StallSocketHazard:      "socket-hazard",
	StallFUBusy:            "fu-busy",
	StallQueueBackpressure: "queue-backpressure",
	StallWatchdog:          "watchdog",
}

// String returns the cause's stable exposition name.
func (c StallCause) String() string {
	if c < NumStallCauses {
		return stallCauseNames[c]
	}
	return "unknown"
}

// StallCounters accumulates cycles charged per stall cause. A fixed
// array indexed by cause: one increment, no map lookup, zero value
// ready to use — the same shape as DropCounters.
type StallCounters [NumStallCauses]int64

// Add charges one cycle to the given cause.
func (c *StallCounters) Add(r StallCause) {
	if r < NumStallCauses {
		c[r]++
	}
}

// AddN charges n cycles to the given cause.
func (c *StallCounters) AddN(r StallCause, n int64) {
	if r < NumStallCauses {
		c[r] += n
	}
}

// Merge adds o's charges into c.
func (c *StallCounters) Merge(o StallCounters) {
	for i := range c {
		c[i] += o[i]
	}
}

// Total returns the charged cycles across all causes.
func (c StallCounters) Total() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// Map returns the nonzero charges keyed by cause name — the export
// shape used by the JSON metrics.
func (c StallCounters) Map() map[string]int64 { return countMap[StallCause](c[:]) }

// MarshalJSON emits the cause-name-keyed map of nonzero charges
// (encoding/json sorts map keys, so the bytes are deterministic).
func (c StallCounters) MarshalJSON() ([]byte, error) { return json.Marshal(c.Map()) }

// UnmarshalJSON accepts the cause-name-keyed map form.
func (c *StallCounters) UnmarshalJSON(b []byte) error {
	return unmarshalCounts[StallCause](b, c[:])
}

// Package obs is the simulator's observability layer: fine-grained
// execution counters, an HDR-style latency histogram (LatencyHist), a
// stall/hazard attribution taxonomy (StallCounters), a Chrome
// trace-event writer, and text exposition in Prometheus (WriteProm) and
// NDJSON (EventWriter) formats — all designed to cost nothing when
// disabled and almost nothing when on. The paper's methodology
// co-analyses simulation observables (cycles/datagram, bus
// utilization); this package extends those aggregates to per-bus,
// per-unit, per-socket and per-percentile resolution so a bottleneck
// can be *located*, not just measured.
//
// The package depends only on the standard library plus the shared
// ipv6 drop taxonomy (DropCounters). The machine model (internal/tta)
// keeps one execution count — cycles per PC, guard failures per static
// move — on both step paths and derives a Counters from it on demand
// (Machine.Counters); its flight recorder (FlightRecorder) is the one
// per-move stream, and internal/tta also provides the adapter that
// streams recorder events into a TraceWriter.
package obs

// Counters is per-component activity for one machine. All fields are
// flat slices indexed by the machine's dense bus, unit and socket IDs.
// The machine derives it from its execution count after a run
// (tta.Machine.Counters); nothing updates it while the machine steps.
type Counters struct {
	// Cycles counts executed cycles.
	Cycles int64

	// BusEncoded counts, per bus, the slots that carried an encoded
	// move (guard true or false). Summed over buses it equals the
	// machine's Stats.SlotsEncoded.
	BusEncoded []int64
	// BusExecuted counts, per bus, the moves whose guard held. Summed
	// over buses it equals Stats.MovesExecuted.
	BusExecuted []int64

	// UnitTriggers counts, per functional unit, trigger-socket writes —
	// the number of operations the unit actually started.
	UnitTriggers []int64
	// UnitResults counts, per functional unit, reads of its Result
	// sockets — how often the unit's outputs were consumed.
	UnitResults []int64

	// SocketReads and SocketWrites are the move heatmap: executed moves
	// by source and destination socket, indexed by SocketID-1.
	// Controller destinations (nc.jmp, nc.halt) are counted in
	// SocketWrites like any other socket.
	SocketReads  []int64
	SocketWrites []int64
}

// NewCounters returns a Counters sized for a machine with the given
// bus, functional-unit and socket counts.
func NewCounters(buses, units, sockets int) *Counters {
	return &Counters{
		BusEncoded:   make([]int64, buses),
		BusExecuted:  make([]int64, buses),
		UnitTriggers: make([]int64, units),
		UnitResults:  make([]int64, units),
		SocketReads:  make([]int64, sockets),
		SocketWrites: make([]int64, sockets),
	}
}

func sum(s []int64) int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// EncodedTotal sums BusEncoded; it must equal Stats.SlotsEncoded.
func (c *Counters) EncodedTotal() int64 { return sum(c.BusEncoded) }

// ExecutedTotal sums BusExecuted; it must equal Stats.MovesExecuted.
func (c *Counters) ExecutedTotal() int64 { return sum(c.BusExecuted) }

// TriggerTotal sums UnitTriggers over every unit.
func (c *Counters) TriggerTotal() int64 { return sum(c.UnitTriggers) }

// BusOccupancy returns the fraction of cycles in which bus carried an
// encoded move, in [0,1].
func (c *Counters) BusOccupancy(bus int) float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.BusEncoded[bus]) / float64(c.Cycles)
}

// UnitUtilization returns the fraction of cycles in which unit u was
// triggered, in [0,1] — the per-FU analogue of bus utilization.
func (c *Counters) UnitUtilization(u int) float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.UnitTriggers[u]) / float64(c.Cycles)
}

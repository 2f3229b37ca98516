package router

import (
	"fmt"
	"sort"

	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/program"
	"taco/internal/rtable"
	"taco/internal/sched"
	"taco/internal/tta"
)

// TACO is the router built around a TACO protocol processor: the
// generated forwarding program runs on the cycle-accurate machine,
// moving datagrams between the line cards through the data memory
// (paper Figure 1 + Figure 2).
//
// The bank holds ifaces+1 line cards; card index ifaces is the host
// queue receiving locally delivered traffic (the path the RIPng process
// reads).
type TACO struct {
	Machine *tta.Machine
	Units   *fu.RouterUnits
	Bank    *linecard.Bank
	Sched   *sched.Result

	tbl        rtable.Table
	ifaces     int
	localAddrs []ipv6.Addr

	// audit, when enabled, records delivered datagrams so machine-level
	// drops can be attributed to a DropReason after the run; nil (the
	// default) costs one pointer check per Deliver.
	audit *dropAudit

	// stalls accumulates the watchdog's per-cause cycle charges: every
	// budget-exhausted run charges its cycles to the classified cause.
	// Reset clears it with the rest of the router state.
	stalls obs.StallCounters
}

// NewTACO builds the processor for cfg over tbl, generates and loads the
// forwarding program, and wires ifaces network cards plus the host card.
func NewTACO(cfg fu.Config, tbl rtable.Table, ifaces int) (*TACO, error) {
	bank := linecard.NewBank(ifaces + 1)
	m, units, err := fu.NewRouterMachine(cfg, tbl, bank)
	if err != nil {
		return nil, err
	}
	units.LIU.SetIfaceCount(ifaces) // the host card index doubles as count
	prog, res, err := program.Forwarding(m, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Load(prog); err != nil {
		return nil, err
	}
	return &TACO{
		Machine: m, Units: units, Bank: bank, Sched: res,
		tbl: tbl, ifaces: ifaces,
	}, nil
}

// UseCompiled switches the machine to the compiled fast path
// (tta.Machine.UseCompiled): the loaded forwarding program is
// pre-lowered once and every subsequent cycle executes through the
// specialized step function. Observable behavior — cycles, stalls,
// socket and queue state, the execution count, recorded events — is
// bit-identical to the interpreter; the count and the flight recorder
// are fed natively by the fast path, so no observer costs the compiled
// speedup.
func (t *TACO) UseCompiled() error { return t.Machine.UseCompiled() }

// ArmRecorder attaches a flight recorder (capacity <= 0 means
// obs.DefaultRecorderCap) to the machine and shares it with the line
// cards, so moves, guard outcomes, triggers and DMA push/pop land on
// one cycle-ordered timeline. A watchdog stall then carries the
// recorder tail in its StallError. Reset clears the recorder with the
// rest of the router state.
func (t *TACO) ArmRecorder(capacity int) *obs.FlightRecorder {
	r := t.Machine.AttachRecorder(capacity)
	t.Bank.SetRecorder(r)
	return r
}

// Recorder returns the armed flight recorder, or nil.
func (t *TACO) Recorder() *obs.FlightRecorder { return t.Machine.Recorder }

// Reset returns the router to its power-on state — units, statistics,
// line-card queues — with the forwarding program still loaded, so the
// same instance can process batch after batch without rebuilding the
// interconnect or revalidating the program. Unit and queue scratch
// capacity is retained, making the steady-state simulate loop
// allocation-free apart from the datagram payloads themselves.
func (t *TACO) Reset() {
	t.Machine.Reset() // also restarts the execution count
	t.Bank.Reset()    // also zeroes card stats incl. high-water marks
	t.stalls = obs.StallCounters{}
	if t.audit != nil {
		t.audit.arrivals = t.audit.arrivals[:0]
		t.audit.unexplained = 0
	}
}

// Rebind points the router at tbl and resets it to power-on state, so
// one built, scheduled and compiled instance serves table after table:
// the forwarding program depends on the configuration alone (the paper
// tunes code per instance, not per table). tbl must be of the kind the
// instance was built for; any other table is rejected and leaves the
// router untouched.
func (t *TACO) Rebind(tbl rtable.Table) error {
	if err := t.Units.RTU.Bind(tbl); err != nil {
		return fmt.Errorf("router: rebind: %w", err)
	}
	t.tbl = tbl
	t.Reset()
	return nil
}

// Ifaces returns the network interface count (excluding the host card).
func (t *TACO) Ifaces() int { return t.ifaces }

// AddLocal registers a local address with the local info unit.
func (t *TACO) AddLocal(addr ipv6.Addr) {
	t.localAddrs = append(t.localAddrs, addr)
	t.Units.LIU.SetLocal(t.localAddrs)
}

// Deliver places a datagram in iface's input queue. The card's frame
// checks apply: oversize or length-inconsistent frames are dropped
// (counted on the card) and false is returned.
func (t *TACO) Deliver(iface int, d linecard.Datagram) bool {
	ok := t.Bank.Card(iface).Deliver(d)
	if ok && t.audit != nil && d.Seq >= 0 {
		t.audit.arrivals = append(t.audit.arrivals, Arrival{Iface: iface, Seq: d.Seq, Data: d.Data})
	}
	return ok
}

// WatchdogBudget is the default cycle budget Run is given for a batch of
// packets over a table of entries: generous, and linear in the table
// because the sequential scan costs O(entries) per packet. The budget is
// part of a forensic bundle's content hash, so every caller that does
// not take an explicit budget from its user derives it here.
func WatchdogBudget(packets, entries int) int64 {
	return int64(packets) * int64(entries+64) * 64
}

// Run executes the forwarding program until expected datagrams have been
// popped and fully processed (the machine is back at its poll loop with
// an empty descriptor queue), or maxCycles elapse.
//
// Budget exhaustion returns a *StallError (matched by errors.Is with
// ErrStall) carrying a machine-state dump: the watchdog's structured
// answer to "why did this instance never finish".
func (t *TACO) Run(expected int64, maxCycles int64) error {
	_, err := t.RunStepped(expected, maxCycles, nil)
	return err
}

// RunStepped is the one forwarding run loop. With a nil onCycle it is
// Run, batching cycles to the next point where the loop's conditions
// can change. With an onCycle it single-steps the machine's step path —
// same stop condition, same budget check, same *StallError — and
// reports every completed cycle (see tta.CycleFunc), which needs an
// armed recorder (ArmRecorder). paused reports that onCycle stopped the
// run before it was done.
func (t *TACO) RunStepped(expected, maxCycles int64, onCycle tta.CycleFunc) (paused bool, err error) {
	mainAddr := t.Sched.Program.Labels["main"]
	start := t.Machine.Stats().Cycles
	more := true
	for {
		if cycles := t.Machine.Stats().Cycles - start; cycles > maxCycles {
			se := &StallError{
				MaxCycles: maxCycles,
				Cycles:    cycles,
				PC:        t.Machine.PC(),
				Expected:  expected,
				Popped:    t.Units.IPPU.Popped(),
				QueueLen:  t.Units.IPPU.QueueLen(),
				Cards:     t.QueueStats(),
				Sockets:   t.Machine.SnapshotSockets(),
			}
			se.Cause = classifyStall(se.QueueLen, se.Cards)
			t.stalls.AddN(se.Cause, cycles)
			if rec := t.Machine.Recorder; rec != nil {
				rec.Record(obs.RecEvent{Kind: obs.EvStall, PC: int32(se.PC),
					Value: uint32(se.Cause)})
				se.Tail = rec.Tail()
				se.TailDropped = rec.Dropped()
				se.SocketNames = t.Machine.SocketNames()
			}
			return false, se
		}
		// Cheapest-first, most-selective-first: the machine is only back
		// at its poll loop (pc == mainAddr) for a few cycles per packet,
		// so testing the PC short-circuits the queue scans on the vast
		// majority of cycles.
		if t.Machine.PC() == mainAddr &&
			t.Units.IPPU.Popped() >= expected &&
			t.Units.IPPU.QueueLen() == 0 &&
			t.Bank.AnyPending() < 0 {
			return false, nil
		}
		if onCycle != nil {
			if !more {
				return true, nil
			}
			if more, err = t.Machine.StepObserved(onCycle); err != nil {
				return false, err
			}
		} else {
			// Batch: run until the next poll-loop visit (the only PC at
			// which the stop condition above can hold) or until one cycle
			// past the budget — exactly where a single-stepped loop lands,
			// so the StallError dump is identical.
			cycles := t.Machine.Stats().Cycles - start
			if _, err := t.Machine.RunToPC(mainAddr, maxCycles-cycles+1); err != nil {
				return false, err
			}
		}
		if t.Machine.Halted() {
			return false, fmt.Errorf("router: machine halted unexpectedly at pc %d", t.Machine.PC())
		}
	}
}

// Outputs drains the transmitted datagrams of a network interface.
func (t *TACO) Outputs(iface int) []linecard.Datagram {
	return t.Bank.Card(iface).DrainOutput()
}

// LocalQueue drains the host queue (locally delivered datagrams).
func (t *TACO) LocalQueue() []linecard.Datagram {
	return t.Bank.Card(t.ifaces).DrainOutput()
}

// LatencySummary characterises store-to-transmit datagram latency in
// machine cycles.
type LatencySummary struct {
	Count                int
	MinCycles, MaxCycles int64
	MeanCycles           float64
	P99Cycles            int64
}

// Latency summarises the per-datagram latencies recorded by the
// postprocessing unit (input-DMA completion to output-buffer write).
func (t *TACO) Latency() LatencySummary {
	ls := t.Units.OPPU.Latencies()
	if len(ls) == 0 {
		return LatencySummary{}
	}
	sorted := append([]int64(nil), ls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	p99 := sorted[(len(sorted)*99)/100]
	return LatencySummary{
		Count:      len(sorted),
		MinCycles:  sorted[0],
		MaxCycles:  sorted[len(sorted)-1],
		MeanCycles: float64(sum) / float64(len(sorted)),
		P99Cycles:  p99,
	}
}

// LatencyHist builds the per-packet latency histogram (store-to-
// transmit, in machine cycles) from the postprocessing unit's records.
func (t *TACO) LatencyHist() *obs.LatencyHist {
	h := &obs.LatencyHist{}
	t.Units.OPPU.LatencyRecords(func(_ int, cycles int64) { h.Record(cycles) })
	return h
}

// WatchdogStalls returns the accumulated per-cause watchdog charges:
// the cycles of every budget-exhausted run since the last Reset,
// attributed to the classified stall cause.
func (t *TACO) WatchdogStalls() obs.StallCounters { return t.stalls }

// SchedStalls returns the scheduler's static hazard attribution for the
// loaded forwarding program.
func (t *TACO) SchedStalls() obs.StallCounters { return t.Sched.Stalls }

// QueueStats returns every line card's queue counters in interface
// order; index Ifaces() is the host card. The counters expose drops and
// the high-water queue depths, making overload visible in the router's
// reported metrics instead of only in a failed run.
func (t *TACO) QueueStats() []linecard.Stats {
	out := make([]linecard.Stats, t.Bank.Len())
	for i := range out {
		out[i] = t.Bank.Card(i).Stats()
	}
	return out
}

// CyclesPerPacket reports total executed cycles divided by datagrams
// popped — the metric behind Table 1's required clock frequency.
func (t *TACO) CyclesPerPacket() float64 {
	popped := t.Units.IPPU.Popped()
	if popped == 0 {
		return 0
	}
	return float64(t.Machine.Stats().Cycles) / float64(popped)
}

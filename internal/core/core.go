// Package core implements the paper's primary contribution: the fast
// evaluation methodology for TACO protocol processor architectures.
//
// For each architecture instance the evaluator
//
//  1. builds the processor and its tuned forwarding program,
//  2. simulates it at system level against a synthetic workload to
//     obtain cycles per datagram and bus utilization,
//  3. converts the throughput constraint into a required clock
//     frequency (required = cycles/datagram × datagrams/second),
//  4. estimates area and average power at that frequency, and
//  5. co-analyses the two results against the design constraints —
//     exactly the SystemC + Matlab co-analysis of the paper's §2.
//
// The output of a full evaluation over the paper's nine instances
// (dse.Table1) is Table 1; Score ranks instances for selection.
package core

import (
	"fmt"

	"taco/internal/estimate"
	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// Constraints captures the target application requirements of §4: line
// rate, datagram size assumption, routing-table size, the technology,
// and the acceptability thresholds used in the co-analysis.
type Constraints struct {
	ThroughputBps float64
	PacketBytes   int
	TableEntries  int
	Tech          estimate.Tech
	// MaxPowerW and MaxAreaMM2 bound what the designer accepts; the
	// paper rejects the ~1 GHz sequential configuration on power.
	MaxPowerW  float64
	MaxAreaMM2 float64
}

// PaperConstraints returns the §4 requirements: 10 Gbps ethernet
// throughput with at most 100 routing-table entries in 0.18 µm.
func PaperConstraints() Constraints {
	return Constraints{
		ThroughputBps: 10e9,
		PacketBytes:   workload.PaperPacketBytes,
		TableEntries:  100,
		Tech:          estimate.Default180nm(),
		MaxPowerW:     3.0,
		MaxAreaMM2:    60,
	}
}

// PacketRate converts the throughput constraint into datagrams/second.
func (c Constraints) PacketRate() float64 {
	return c.ThroughputBps / (8 * float64(c.PacketBytes))
}

// Metrics is the co-analysed result for one architecture instance — one
// row of Table 1 plus the simulation detail behind it.
type Metrics struct {
	Kind   rtable.Kind
	Config fu.Config

	// Simulation results.
	CyclesPerPacket float64
	BusUtilization  float64 // fraction of bus slots carrying a move
	PacketsRun      int

	// Co-analysis results.
	RequiredClockHz float64
	Est             estimate.Estimate
	// ClockFeasible is the paper's NA criterion: the required clock is
	// implementable in the technology.
	ClockFeasible bool
	// MeetsPower / MeetsArea apply the designer's thresholds.
	MeetsPower, MeetsArea bool
	// CAMChipPowerW is the external CAM chips' power for CAM rows, one
	// chip per DefaultCAMConfig().Capacity entries (excluded from
	// Est.PowerW, as in the paper's footnote).
	CAMChipPowerW float64

	// Static program properties.
	ProgramCycles int
	ProgramMoves  int

	// RTULoads is the routing-table unit's hardware access counter over
	// the whole run (entry loads, node loads or CAM searches depending
	// on the backend) — the exact probe count the scaling model
	// calibrates against.
	RTULoads int64 `json:",omitempty"`

	// Large-database scaling results (EvaluateScaled only).
	TableEntries       int                `json:",omitempty"`
	AvgProbesPerPacket float64            `json:",omitempty"`
	TableMem           *estimate.TableMem `json:",omitempty"`
	ScaleModel         *ScaleModel        `json:",omitempty"`

	// Drops aggregates the line cards' per-reason drop counters over the
	// run — the shared fault taxonomy's roll-up, nonempty only when
	// something was actually discarded.
	Drops map[string]int64 `json:",omitempty"`

	// Per-packet store-to-transmit latency, in machine cycles, from the
	// postprocessing unit's records folded into a log-bucketed histogram
	// (obs.LatencyHist). Always populated — recording costs nothing the
	// simulation wasn't already paying — so tail latency is visible in
	// every export, not only under SimOptions.Observe.
	LatencyCount int64 `json:",omitempty"`
	LatencyP50   int64 `json:",omitempty"`
	LatencyP90   int64 `json:",omitempty"`
	LatencyP99   int64 `json:",omitempty"`
	LatencyP999  int64 `json:",omitempty"`
	// LatencyHist is the full histogram behind the percentile fields, for
	// callers that merge across instances or export it (obs.WriteProm).
	// Excluded from JSON so exported rows stay flat; the percentiles
	// above are the serialized view.
	LatencyHist *obs.LatencyHist `json:"-"`

	// SchedStalls is the scheduler's static hazard attribution for the
	// forwarding program: cycles moves waited beyond their block floor,
	// by cause (obs.StallCause names). Deterministic per instance. The
	// dynamic half of the taxonomy — watchdog charges — lives on the
	// router (TACO.WatchdogStalls) and in StallError.Cause, since a
	// stalled run never produces a Metrics row.
	SchedStalls map[string]int64 `json:",omitempty"`

	// Fine-grained observability. LineCards (per-card queue counters,
	// index Config-ifaces is the host card) is always populated;
	// FUUtilization and BusOccupancy require SimOptions.Observe, which
	// derives them from the simulated machine's execution count.
	LineCards     []linecard.Stats `json:",omitempty"`
	FUUtilization []FUUtil         `json:",omitempty"`
	// BusOccupancy is the per-bus fraction of cycles carrying an
	// encoded move; its mean equals BusUtilization.
	BusOccupancy []float64 `json:",omitempty"`
}

// FUUtil is one functional unit's observed activity during simulation —
// the per-stage utilization that locates datapath bottlenecks.
type FUUtil struct {
	Unit     string
	Triggers int64
	// Utilization is triggers per executed cycle, in [0,1].
	Utilization float64
}

// Acceptable reports whether the instance satisfies every constraint.
func (m Metrics) Acceptable() bool {
	return m.ClockFeasible && m.MeetsPower && m.MeetsArea
}

// SimOptions tunes the simulation workload.
type SimOptions struct {
	Packets   int
	Seed      uint64
	MissRatio float64
	Ifaces    int

	// Observe surfaces the simulated machine's per-FU and per-bus
	// counters in Metrics.FUUtilization and Metrics.BusOccupancy. They
	// are derived after the run from the execution count the machine
	// always keeps, so observing costs no simulation speed; off by
	// default only to keep exported rows short.
	Observe bool

	// Compiled runs the simulation through the compiled fast path
	// (tta.Machine.UseCompiled): the forwarding program is pre-lowered
	// into a specialized step function that is bit-identical to the
	// interpreter but several times faster. On in DefaultSimOptions;
	// false selects the interpreter, which is the reference semantics
	// the compiled path is checked against.
	Compiled bool `json:",omitempty"`

	// MaxCyclesPerPacket overrides the watchdog's cycle budget (budget =
	// Packets × MaxCyclesPerPacket). Zero keeps the generous default
	// scaled to the table size. Setting it absurdly low is the
	// fault-injection knob for provoking a router.StallError on an
	// otherwise healthy instance.
	MaxCyclesPerPacket int `json:",omitempty"`

	// ForensicsDir, when non-empty, arms the machine's flight recorder
	// and — should the run stall — writes a self-contained forensic
	// bundle (config, routes, datagrams, recorder tail, terminal
	// snapshot) into this directory. The returned error then wraps the
	// StallError in a *forensics.CapturedError carrying the bundle path.
	// Excluded from serialized options: it names a local directory, not
	// an experiment parameter.
	ForensicsDir string `json:"-"`
}

// DefaultSimOptions returns the evaluation workload used throughout the
// repository's experiments, simulated on the compiled step path.
func DefaultSimOptions() SimOptions {
	return SimOptions{Packets: 64, Seed: 2003, MissRatio: 0.05, Ifaces: 4, Compiled: true}
}

// simInputs derives an instance's complete simulation workload — the
// routing table entries, the arrivals, what the golden reference does
// with them (router.ReferenceOutcomes) and the watchdog budget — from
// its (constraints, options) pair. Both Evaluate and the forensic-bundle
// builders go through this one derivation, so a bundle's recorded
// inputs are exactly what the evaluation ran.
func simInputs(cons Constraints, sim SimOptions) simSet {
	routes := workload.GenerateRoutes(workload.TableSpec{
		Entries: cons.TableEntries,
		Ifaces:  sim.Ifaces,
		Seed:    sim.Seed,
	})
	pkts, err := workload.GenerateTraffic(routes, workload.TrafficSpec{
		Packets:   sim.Packets,
		SizeBytes: cons.PacketBytes,
		MissRatio: sim.MissRatio,
		Seed:      sim.Seed,
	})
	if err != nil {
		return simSet{err: err}
	}
	in := simSet{routes: routes, arrivals: router.RoundRobin(pkts, sim.Ifaces),
		budget: router.WatchdogBudget(sim.Packets, cons.TableEntries)}
	if sim.MaxCyclesPerPacket > 0 {
		in.budget = int64(sim.Packets) * int64(sim.MaxCyclesPerPacket)
	}
	in.want, in.err = router.ReferenceOutcomes(routes, sim.Ifaces, in.arrivals)
	return in
}

// Evaluate runs the full methodology for one architecture instance.
func Evaluate(cfg fu.Config, cons Constraints, sim SimOptions) (Metrics, error) {
	return new(SweepCache).Evaluate(cfg, cons, sim)
}

// Evaluate is the package-level Evaluate drawing the instance's
// simulation inputs from c; the result does not depend on what c
// already holds.
func (c *SweepCache) Evaluate(cfg fu.Config, cons Constraints, sim SimOptions) (Metrics, error) {
	if sim.Packets <= 0 {
		sim = DefaultSimOptions()
	}
	in := c.inputs(cons, sim)
	if in.err != nil {
		return Metrics{}, in.err
	}
	tbl := rtable.New(cfg.Table)
	if err := rtable.InsertAll(tbl, in.routes); err != nil {
		return Metrics{}, fmt.Errorf("core: %w", err)
	}
	tr, err := router.NewTACO(cfg, tbl, sim.Ifaces)
	if err != nil {
		return Metrics{}, err
	}
	if sim.ForensicsDir != "" {
		tr.ArmRecorder(0)
	}
	if sim.Compiled {
		if err := tr.UseCompiled(); err != nil {
			return Metrics{}, err
		}
	}
	run, runErr := tr.RunChecked(in.arrivals, in.want, in.budget, nil)
	err = runErr
	if err == nil && !run.Agree() {
		err = fmt.Errorf("core: %s/%s: golden-router cross-check: %v", cfg.Table, cfg.Name, run.Diff)
	}
	if err != nil {
		if sim.ForensicsDir != "" {
			if bs := in.bundle("", cfg, sim, run.Delivered, sim.Compiled).Failures(tr, run, runErr); len(bs) > 0 {
				err = bs[0].Capture(sim.ForensicsDir, err)
			}
		}
		return Metrics{}, err
	}

	cycles := tr.CyclesPerPacket()
	required := cycles * cons.PacketRate()
	est := estimate.Physical(cfg, required, cons.Tech)

	m := Metrics{
		Kind:            cfg.Table,
		Config:          cfg,
		CyclesPerPacket: cycles,
		BusUtilization:  tr.Machine.Stats().BusUtilization(),
		PacketsRun:      len(in.arrivals),
		RequiredClockHz: required,
		Est:             est,
		ClockFeasible:   est.Feasible,
		MeetsPower:      est.PowerW <= cons.MaxPowerW,
		MeetsArea:       est.AreaMM2 <= cons.MaxAreaMM2,
		ProgramCycles:   tr.Sched.Cycles,
		ProgramMoves:    tr.Sched.MovesOut,
		LineCards:       tr.QueueStats(),
	}
	var drops obs.DropCounters
	for _, st := range m.LineCards {
		drops.Merge(st.Drops)
	}
	if drops.Total() > 0 {
		m.Drops = drops.Map()
	}
	m.LatencyHist = tr.LatencyHist()
	if m.LatencyHist.Count() > 0 {
		p := m.LatencyHist.Percentiles()
		m.LatencyCount = m.LatencyHist.Count()
		m.LatencyP50, m.LatencyP90 = p.P50, p.P90
		m.LatencyP99, m.LatencyP999 = p.P99, p.P999
	}
	if st := tr.SchedStalls(); st.Total() > 0 {
		m.SchedStalls = st.Map()
	}
	if sim.Observe {
		ctrs := tr.Machine.Counters()
		names := tr.Machine.UnitNames()
		m.FUUtilization = make([]FUUtil, len(names))
		for u, name := range names {
			m.FUUtilization[u] = FUUtil{
				Unit:        name,
				Triggers:    ctrs.UnitTriggers[u],
				Utilization: ctrs.UnitUtilization(u),
			}
		}
		m.BusOccupancy = make([]float64, cfg.Buses)
		for b := range m.BusOccupancy {
			m.BusOccupancy[b] = ctrs.BusOccupancy(b)
		}
	}
	m.CAMChipPowerW = estimate.TableSRAM(cfg.Table, tbl.MemDims(), required, cons.Tech).CAMPowerW
	m.RTULoads = tr.Units.RTU.Loads()
	return m, nil
}

// Score orders instances for selection, lower first — the paper's
// final criterion (performance met, then physical characteristics):
// acceptable instances by power, then area; unacceptable ones after all
// acceptable ones, by how far the required clock overshoots.
func Score(m Metrics) float64 {
	if m.Acceptable() {
		return m.Est.PowerW + m.Est.AreaMM2/1000
	}
	return 1e6 + m.RequiredClockHz/1e6
}

// SelectBest returns the acceptable instance with the lowest Score, the
// first of equals, or false when none is acceptable.
func SelectBest(ms []Metrics) (Metrics, bool) {
	best, found := Metrics{}, false
	for _, m := range ms {
		if m.Acceptable() && (!found || Score(m) < Score(best)) {
			best, found = m, true
		}
	}
	return best, found
}

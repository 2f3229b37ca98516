package net

import (
	"fmt"
	"sort"

	"taco/internal/workload"
)

// The campaign's one fixed schedule, in mesh ticks. The chaos window
// opens two ticks after initial convergence and lasts chaosTicks; every
// scheduled fault starts and ends inside it. A flapped edge stays down
// flapDownTicks, the partition opens three ticks into the window and
// heals partitionTicks later, and a crashed node restarts after
// crashDownTicks. Throughout the window every wire loses a frame with
// probability chaosLoss and flips one bit of it with probability
// chaosCorrupt, and every probeEvery ticks each alive stub owner
// launches probeDests audit probes. After reconvergence the verdict
// sweep sends sweepDests probes per stub owner over perfect wires.
const (
	chaosTicks     = 80
	flapDownTicks  = 13
	partitionTicks = 41
	crashDownTicks = 19
	chaosLoss      = 0.02
	chaosCorrupt   = 0.01
	probeEvery     = 7
	probeDests     = 1
	sweepDests     = 2
)

// CampaignOptions says which faults one chaos campaign schedules; the
// schedule's timing, wire quality and probe load are the constants
// above.
type CampaignOptions struct {
	// Flaps is the number of single-edge flap cycles.
	Flaps int
	// Partition enables one partition/heal: a BFS ball of roughly N/5
	// nodes is cut off and healed partitionTicks later.
	Partition bool
	// Crashes is the number of node crash/restart cycles.
	Crashes int
	// Storms is the number of poison storms injected.
	Storms int
	// InjectViolation deliberately black-holes one stub route before the
	// verdict sweep, to prove the violation -> bundle -> replay pipeline
	// end to end. The campaign verdict is then expected to be FAIL.
	InjectViolation bool
}

// convergeBudget bounds how long the mesh may take to settle: the full
// timeout + GC aging of stale state, a generous number of update
// rounds, and propagation across the diameter.
func (m *Mesh) convergeBudget() int64 {
	return int64(DefaultTimeoutTicks+DefaultGCTicks+16*DefaultUpdateTicks) +
		4*int64(m.topo.Diameter()) + 64
}

// WaveProbes injects up to dests audit probes from every alive stub
// owner toward arbitrary foreign stub prefixes (reachable or not:
// mid-chaos fates are audited, not asserted). Returns the launch count.
func (m *Mesh) WaveProbes(dests int) int {
	launched := 0
	owners := m.topo.StubOwners
	for _, src := range owners {
		if !m.nodes[src].alive {
			continue
		}
		for d := 0; d < dests; d++ {
			dst := owners[m.probeRNG.Intn(len(owners))]
			if dst == src {
				continue
			}
			if m.InjectProbe(src, StubPrefix(dst), false) {
				launched++
			}
		}
	}
	return launched
}

// RunCampaign drives one full chaos campaign on the mesh: initial
// convergence, a seeded chaos window with probe waves, reconvergence,
// a clean verdict sweep, and the invariant verdict.
func RunCampaign(m *Mesh, copt CampaignOptions) *CampaignReport {
	rep := &CampaignReport{
		Topo:     m.topo.Name,
		Nodes:    m.topo.N,
		Edges:    len(m.topo.Edges),
		Diameter: m.topo.Diameter(),
		Mix:      m.opt.Mix,
		Table:    m.opt.Table.String(),
		Seed:     m.opt.Seed,
	}
	budget := m.convergeBudget()

	// Phase 1: cold-start convergence.
	rep.InitialTicks, rep.InitialOK = m.RunUntilConverged(budget)
	if !rep.InitialOK {
		rep.InitialDivergence = m.Divergence()
	}

	// Phase 2: schedule the chaos window and run through it.
	rng := workload.NewRNG(m.opt.Seed ^ 0xc6a4a7935bd1e995)
	start := m.Now() + 2
	end := start + chaosTicks
	ev := func(format string, args ...any) {
		rep.Events = append(rep.Events, fmt.Sprintf(format, args...))
	}
	for i := 0; i < copt.Flaps && len(m.topo.Edges) > 0; i++ {
		ei := rng.Intn(len(m.topo.Edges))
		at := start + int64(rng.Intn(chaosTicks-flapDownTicks-2))
		m.ScheduleEdge(ei, at, false)
		m.ScheduleEdge(ei, at+flapDownTicks, true)
		ev("tick %d: edge %d (%d-%d) down for %d ticks",
			at, ei, m.topo.Edges[ei].A, m.topo.Edges[ei].B, flapDownTicks)
		rep.Flaps++
	}
	if copt.Partition {
		ball := m.bfsBall(rng.Intn(m.topo.N), (m.topo.N+4)/5)
		at := start + 3
		heal := at + partitionTicks
		cut := m.CutBetween(func(n int) bool { return ball[n] }, at, heal)
		rep.PartitionEdges = len(cut)
		var members []int
		for n := range ball {
			members = append(members, n)
		}
		sort.Ints(members)
		ev("tick %d: partition %d nodes %v (cut %d edges), heal at tick %d",
			at, len(members), members, len(cut), heal)
	}
	for i := 0; i < copt.Crashes; i++ {
		nodeID := rng.Intn(m.topo.N)
		at := start + int64(rng.Intn(chaosTicks-crashDownTicks-2))
		restart := at + crashDownTicks
		m.ScheduleCrash(nodeID, at, restart)
		ev("tick %d: node %d crashes, restarts at tick %d", at, nodeID, restart)
		rep.Crashes++
	}
	for i := 0; i < copt.Storms; i++ {
		nodeID := rng.Intn(m.topo.N)
		at := start + int64(rng.Intn(chaosTicks-1))
		m.ScheduleStorm(nodeID, at)
		ev("tick %d: poison storm from node %d", at, nodeID)
		rep.Storms++
	}
	rep.ChaosTicks = chaosTicks

	m.SetLinkFaults(chaosLoss, chaosCorrupt)
	for m.Now() < end {
		if (m.Now()-start)%probeEvery == 0 {
			rep.ChaosProbes += m.WaveProbes(probeDests)
		}
		m.Step()
	}
	m.SetLinkFaults(0, 0)

	// Phase 3: quiescence — all faults cleared, reconverge.
	rep.ReconvergeTicks, rep.ReconvergeOK = m.RunUntilConverged(budget)
	if !rep.ReconvergeOK {
		rep.ReconvergeDivergence = m.Divergence()
	}
	rep.NextHopUnsound = m.NextHopSound()

	// Phase 4: converged verdict sweep over perfect wires; every probe
	// must deliver, and any death is an invariant violation.
	if copt.InjectViolation && len(m.topo.StubOwners) >= 2 {
		owners := m.topo.StubOwners
		victim := owners[len(owners)-1]
		src := owners[0]
		if m.InjectBlackhole(victim, StubPrefix(victim)) {
			ev("tick %d: INJECTED blackhole: node %d dropped its own stub route %v",
				m.Now(), victim, StubPrefix(victim))
			rep.InjectedViolation = true
			m.SetConvergedWindow(true)
			m.InjectProbe(src, StubPrefix(victim), true)
			rep.SweepLaunched++
		}
	}
	m.SetConvergedWindow(true)
	rep.SweepLaunched += m.SweepProbes(sweepDests)
	deadline := m.Now() + maxProbeAgeTicks + 4
	for m.InFlight() > 0 && m.Now() < deadline {
		m.Step()
	}
	m.SetConvergedWindow(false)

	// Verdict.
	for _, oc := range m.DrainOutcomes() {
		if oc.Sweep && oc.Result == "delivered" {
			rep.SweepDelivered++
		}
	}
	rep.Injected, rep.Delivered, rep.Deaths = m.ProbeLedger()
	rep.InFlight = m.InFlight()
	rep.Ctrl = m.CtrlTotals()
	rep.TACOHops, rep.TACODivergences, rep.Stalls = m.TACOTotals()
	rep.Quarantined = m.Quarantined()
	rep.AuditProblems = m.AuditConservation()
	rep.Violations = m.Violations()
	rep.Bundles = append([]string(nil), m.BundlePaths()...)
	sort.Strings(rep.Bundles)
	if m.watch != nil {
		rep.WatchOn = true
		rep.MaxUpwardRevisions = m.MaxUpwardRevisions()
	}
	rep.Verdict = "PASS"
	if !rep.InitialOK || !rep.ReconvergeOK || rep.NextHopUnsound != "" ||
		len(rep.Violations) > 0 || len(rep.AuditProblems) > 0 ||
		rep.SweepDelivered != rep.SweepLaunched || rep.InFlight != 0 {
		rep.Verdict = "FAIL"
	}
	return rep
}

// bfsBall returns a set of roughly size nodes around center, grown in
// deterministic BFS order over the full topology.
func (m *Mesh) bfsBall(center, size int) map[int]bool {
	ball := map[int]bool{center: true}
	queue := []int{center}
	for len(queue) > 0 && len(ball) < size {
		u := queue[0]
		queue = queue[1:]
		for _, nb := range m.nodes[u].nbrs {
			if !ball[nb.node] {
				ball[nb.node] = true
				queue = append(queue, nb.node)
				if len(ball) >= size {
					break
				}
			}
		}
	}
	return ball
}

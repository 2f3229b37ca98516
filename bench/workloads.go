package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"

	"taco/internal/bits"
	"taco/internal/core"
	"taco/internal/dse"
	"taco/internal/fault"
	tnet "taco/internal/net"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// iterOut is what one iteration of a workload produced.
type iterOut struct {
	Ops, Failed int64
	// Failures names the failed ops (instance labels, campaign verdicts).
	Failures []string
	// SimCycles is the simulated TTA cycles the iteration executed and
	// CyclesPerPacket the per-instance cycles/packet summed over the
	// workload's instances; both 0 where no TTA machine is visible.
	SimCycles       int64
	CyclesPerPacket float64
	// ClockErr is the mean |log2(required clock / paper clock)| over
	// the nine Table 1 rows (table1 workloads only).
	ClockErr float64
	// Digest is the FNV-64 of the iteration's simulated outputs.
	Digest string
}

// instance is one set-up workload, ready to iterate.
type instance struct {
	// iter runs one iteration. The clock covers exactly this call, so
	// digests and bookkeeping happen in settle, off the clock.
	iter func() error
	// settle turns the last iter's raw result into an iterOut.
	settle func() iterOut
	// finish runs the checks that need the state left by the whole
	// timed window; each returned string is one failed op.
	finish func() []string
}

// Fixed sizes of the workloads. They are part of the benchmark's
// definition: changing one starts a new baseline.
const (
	fastObsPackets  = 512
	churnRoutes     = 100_000
	churnDests      = 65_536
	churnLookups    = 4096 // per table per iteration
	churnUpdates    = 64   // per churned table per iteration
	churnStreamOps  = 1 << 18
	churnMissRatio  = 0.05
	churnCheckDests = 4096
	soakCampaigns   = 16
	soakPackets     = 96
	soakEntries     = 96
	soakSpec        = "all:0.2"
	meshArity       = 14
)

var largeTableSizes = []int{10_000, 100_000}

// setupWorkload builds the named workload's inputs from seed. tmp is a
// scratch directory inside the checkout.
func setupWorkload(name string, seed uint64, tmp string) (*instance, error) {
	switch name {
	case "table1":
		return setupTable1(table1Sim(seed)), nil
	case "table1-fast-obs":
		return setupFastObs(seed, tmp), nil
	case "largetable":
		return setupLargeTable(seed), nil
	case "rtable-churn":
		return setupChurn(seed)
	case "router-faults":
		return setupRouterFaults(seed)
	case "mesh-chaos":
		return setupMeshChaos(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// ---- table1 and table1-fast-obs ----

func table1Sim(seed uint64) core.SimOptions {
	sim := core.DefaultSimOptions()
	sim.Seed = seed
	return sim
}

func fastObsSim(seed uint64, tmp string) core.SimOptions {
	sim := table1Sim(seed)
	sim.Packets = fastObsPackets
	sim.Compiled = true
	sim.Observe = true
	sim.ForensicsDir = tmp
	return sim
}

// summarizeTable1 folds nine evaluated rows into an iterOut. Only the
// fields summed here need be filled, which lets the traced pipeline
// share it.
func summarizeTable1(ms []core.Metrics) iterOut {
	out := iterOut{Ops: int64(len(ms))}
	d := newDigest()
	var errSum float64
	rows := 0
	for _, m := range ms {
		out.SimCycles += int64(m.CyclesPerPacket*float64(m.PacketsRun) + 0.5)
		out.CyclesPerPacket += m.CyclesPerPacket
		if pr, ok := core.PaperRowFor(m); ok {
			errSum += math.Abs(math.Log2(m.RequiredClockHz / pr.RequiredHz))
			rows++
		}
		d.str(m.Kind.String() + "/" + m.Config.Name)
		d.f64(m.CyclesPerPacket)
		d.i64(m.LatencyP50)
		d.i64(m.LatencyP90)
		d.i64(m.LatencyP99)
		d.i64(m.LatencyP999)
	}
	if rows > 0 {
		out.ClockErr = errSum / float64(rows)
	}
	out.Digest = d.sum()
	return out
}

// table1Failed is the iterOut of a sweep that returned an error: the
// engine stops at the first failing instance, so all nine count.
func table1Failed(err error) iterOut {
	return iterOut{Ops: 9, Failed: 9, Failures: []string{err.Error()}}
}

func setupTable1(sim core.SimOptions) *instance {
	cons := core.PaperConstraints()
	var ms []core.Metrics
	var err error
	return &instance{
		iter: func() error {
			ms, err = dse.Table1(context.Background(), cons, sim, 1)
			return nil
		},
		settle: func() iterOut {
			if err != nil {
				return table1Failed(err)
			}
			return summarizeTable1(ms)
		},
	}
}

// setupFastObs is table1 on the compiled path with every sink armed.
// After the window it re-runs the same 512-packet batch on the bare
// interpreter and demands row-for-row equal cycles/packet: compiled ≡
// interpreted, checked on the inputs this workload actually simulates.
func setupFastObs(seed uint64, tmp string) *instance {
	inst := setupTable1(fastObsSim(seed, tmp))
	var last iterOut
	settle := inst.settle
	inst.settle = func() iterOut { last = settle(); return last }
	inst.finish = func() []string {
		ref := table1Sim(seed)
		ref.Packets = fastObsPackets
		ms, err := dse.Table1(context.Background(), core.PaperConstraints(), ref, 1)
		if err != nil {
			return []string{"interpreter reference: " + err.Error()}
		}
		if want := summarizeTable1(ms); want.Digest != last.Digest {
			return []string{fmt.Sprintf("compiled+obs+recorder digest %s differs from interpreter digest %s",
				last.Digest, want.Digest)}
		}
		return nil
	}
	return inst
}

// ---- largetable ----

func largeTableInstances(seed uint64) []dse.Instance {
	return dse.LargeTableInstances(dse.LargeTableKinds, largeTableSizes, 0,
		core.PaperConstraints(), table1Sim(seed))
}

// summarizeSweep digests the sweep's JSON export and counts the points
// that carry an error.
func summarizeSweep(points []dse.Point) iterOut {
	out := iterOut{Ops: int64(len(points))}
	for _, p := range points {
		if p.Err != "" {
			out.Failed++
			out.Failures = append(out.Failures,
				fmt.Sprintf("%v/%g: %s", p.Metrics.Kind, p.X, p.Err))
		}
	}
	var buf bytes.Buffer
	if err := dse.WriteJSON(&buf, points); err != nil {
		out.Failed = out.Ops
		out.Failures = append(out.Failures, "sweep JSON: "+err.Error())
	}
	out.Digest = digestOf(buf.Bytes())
	return out
}

func setupLargeTable(seed uint64) *instance {
	insts := largeTableInstances(seed)
	var points []dse.Point
	return &instance{
		iter: func() (err error) {
			points, err = dse.Sweep(context.Background(), insts, runtime.NumCPU())
			return err
		},
		settle: func() iterOut { return summarizeSweep(points) },
	}
}

// ---- rtable-churn ----

// churnState is the five pre-built tables and the streams played at them.
type churnState struct {
	tables []rtable.Table
	dests  []bits.Word128
	stream []workload.ChurnOp
	// destAt and streamAt are the cursors; every table sees the same
	// lookups and the churned ones the same prefix of the stream.
	destAt, streamAt int
	// baseline is the balanced tree's answers on the check sample right
	// after set-up; it is never churned and must keep giving them.
	baseline []rtable.Route
	digest   string
}

// churnInputs generates the route set and both streams from seed.
func churnInputs(seed uint64) ([]rtable.Route, []bits.Word128, []workload.ChurnOp) {
	routes := workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: churnRoutes, Ifaces: 4, Seed: seed})
	dests := workload.SampleDests(routes, churnDests, churnMissRatio, seed)
	stream := workload.GenerateChurn(routes, workload.ChurnSpec{Ops: churnStreamOps, Seed: seed, Ifaces: 4})
	return routes, dests, stream
}

// agree looks the first churnCheckDests destinations up in every table
// and returns one failure per table that disagrees with the first, plus
// the first table's answers.
func agree(tables []rtable.Table, dests []bits.Word128) (fails []string, ref []rtable.Route) {
	ref = make([]rtable.Route, churnCheckDests)
	hit := make([]bool, churnCheckDests)
	for ti, tbl := range tables {
		bad := 0
		for i, dst := range dests[:churnCheckDests] {
			r, ok := tbl.Lookup(dst)
			if ti == 0 {
				ref[i], hit[i] = r, ok
			} else if ok != hit[i] || (ok && r != ref[i]) {
				bad++
			}
		}
		if bad > 0 {
			fails = append(fails, fmt.Sprintf("%v disagrees with %v on %d of %d sampled lookups",
				tbl.Kind(), tables[0].Kind(), bad, churnCheckDests))
		}
	}
	return fails, ref
}

// checkBuilt runs the after-set-up agreement check and fixes the digest
// (the pre-churn answers: independent of how many iterations follow).
func (c *churnState) checkBuilt() []string {
	for _, tbl := range c.tables {
		tbl.ResetStats()
	}
	fails, ref := agree(c.tables, c.dests)
	c.baseline = ref
	d := newDigest()
	for _, r := range ref {
		d.str(r.String())
	}
	for _, tbl := range c.tables {
		d.i64(int64(tbl.Len()))
	}
	c.digest = d.sum()
	return fails
}

// iterate is one iteration: per table a batch of lookups, then a batch
// of updates for the churned ones. batch runs each one (the traced run
// passes tracer.do to put a span around it).
func (c *churnState) iterate(batch func(name string, fn func() int64)) (ops int64, exhausted bool) {
	if c.streamAt+churnUpdates > len(c.stream) {
		return 0, true
	}
	if c.destAt+churnLookups > len(c.dests) {
		c.destAt = 0
	}
	dests := c.dests[c.destAt : c.destAt+churnLookups]
	upd := c.stream[c.streamAt : c.streamAt+churnUpdates]
	for _, tbl := range c.tables {
		tbl := tbl
		batch("rtable."+tbl.Kind().String()+".lookup", func() int64 {
			for _, dst := range dests {
				tbl.Lookup(dst)
			}
			return int64(len(dests))
		})
		ops += int64(len(dests))
		if !updatable(tbl.Kind()) {
			continue
		}
		batch("rtable."+tbl.Kind().String()+".update", func() int64 {
			for _, op := range upd {
				if op.Op == workload.ChurnDelete {
					tbl.Delete(op.Route.Prefix)
				} else {
					_ = tbl.Insert(op.Route) // prefixes are generated valid; agreement is checked after the window
				}
			}
			return int64(len(upd))
		})
		ops += int64(len(upd))
	}
	c.destAt += churnLookups
	c.streamAt += churnUpdates
	return ops, false
}

// checkChurned runs the after-window checks: the churned tables agree
// pairwise on Len and on sampled lookups, and the balanced tree still
// answers as it did after set-up.
func (c *churnState) checkChurned() []string {
	var churned []rtable.Table
	var fails []string
	for _, tbl := range c.tables {
		if updatable(tbl.Kind()) {
			churned = append(churned, tbl)
			continue
		}
		bad := 0
		for i, dst := range c.dests[:churnCheckDests] {
			if r, _ := tbl.Lookup(dst); r != c.baseline[i] {
				bad++
			}
		}
		if bad > 0 {
			fails = append(fails, fmt.Sprintf("un-churned %v changed %d of %d answers", tbl.Kind(), bad, churnCheckDests))
		}
	}
	for _, tbl := range churned[1:] {
		if tbl.Len() != churned[0].Len() {
			fails = append(fails, fmt.Sprintf("%v holds %d routes, %v holds %d after the same updates",
				tbl.Kind(), tbl.Len(), churned[0].Kind(), churned[0].Len()))
		}
	}
	more, _ := agree(churned, c.dests)
	return append(fails, more...)
}

func buildChurn(routes []rtable.Route, dests []bits.Word128, stream []workload.ChurnOp) (*churnState, error) {
	c := &churnState{dests: dests, stream: stream}
	for _, k := range churnKinds {
		tbl := rtable.New(k)
		if err := rtable.InsertAll(tbl, routes); err != nil {
			return nil, fmt.Errorf("build %v: %w", k, err)
		}
		c.tables = append(c.tables, tbl)
	}
	return c, nil
}

func plainBatch(_ string, fn func() int64) { fn() }

func setupChurn(seed uint64) (*instance, error) {
	c, err := buildChurn(churnInputs(seed))
	if err != nil {
		return nil, err
	}
	built := c.checkBuilt()
	var ops int64
	var exhausted bool
	return &instance{
		iter: func() error {
			ops, exhausted = c.iterate(plainBatch)
			if exhausted {
				return errStreamExhausted
			}
			return nil
		},
		settle: func() iterOut { return iterOut{Ops: ops, Digest: c.digest} },
		finish: func() []string { return append(built, c.checkChurned()...) },
	}, nil
}

// errStreamExhausted ends a pass early: the update stream is finite
// (deletes must hit live routes, so it cannot wrap) and sized for
// several times today's speed.
var errStreamExhausted = fmt.Errorf("rtable-churn: update stream exhausted")

// ---- router-faults ----

func soakOptions(seed uint64) fault.SoakOptions {
	return fault.SoakOptions{Campaigns: soakCampaigns, Packets: soakPackets, Entries: soakEntries,
		Spec: soakSpec, Seed: seed, Compiled: true}
}

// summarizeSoak counts a soak report's failed ops and digests it. The
// simulated cycle counts are not in the report; the caller adds them.
func summarizeSoak(rep fault.SoakReport) iterOut {
	out := iterOut{Ops: rep.Packets}
	add := func(n int64, what string) {
		if n > 0 {
			out.Failed += n
			out.Failures = append(out.Failures, fmt.Sprintf("%d %s", n, what))
		}
	}
	add(int64(rep.Stalls), "stalled campaigns")
	add(int64(rep.Mismatches), "golden-vs-TACO mismatches")
	add(rep.Unexplained, "unexplained drops")
	js, err := json.Marshal(rep)
	if err != nil {
		add(1, "soak report JSON: "+err.Error())
	}
	out.Digest = digestOf(js)
	return out
}

// setupRouterFaults runs fault.RunSoak per iteration. RunSoak reports no
// cycle counts, so set-up runs the harness's own step-by-step soak once
// (the traced pipeline, spans discarded) to learn the simulated cycles
// of one iteration — and requires it to reproduce RunSoak's report.
func setupRouterFaults(seed uint64) (*instance, error) {
	opts := soakOptions(seed)
	stepRep, cycles, cpp, err := steppedSoak(newTracer("router-faults"), opts)
	if err != nil {
		return nil, err
	}
	stepped := summarizeSoak(stepRep)
	var rep fault.SoakReport
	var last iterOut
	return &instance{
		iter: func() (err error) {
			rep, err = fault.RunSoak(opts)
			return err
		},
		settle: func() iterOut {
			last = summarizeSoak(rep)
			last.SimCycles, last.CyclesPerPacket = cycles, cpp
			return last
		},
		finish: func() []string {
			if last.Digest == stepped.Digest {
				return nil
			}
			return []string{fmt.Sprintf("step-by-step soak digest %s differs from RunSoak digest %s",
				stepped.Digest, last.Digest)}
		},
	}, nil
}

// ---- mesh-chaos ----

// campaignOptions are cmd/tacotopo's defaults (the topo-soak campaign).
func campaignOptions() tnet.CampaignOptions {
	return tnet.CampaignOptions{Flaps: 4, Partition: true, Crashes: 1, Storms: 1}
}

func meshOptions(seed uint64, workers int) tnet.Options {
	return tnet.Options{Mix: "mixed", Table: rtable.Sequential, Seed: seed, Workers: workers}
}

// summarizeCampaign counts node-ticks; a campaign whose verdict is not
// PASS fails all of them.
func summarizeCampaign(rep *tnet.CampaignReport, ticks int64) iterOut {
	out := iterOut{Ops: int64(rep.Nodes) * ticks}
	if rep.Verdict != "PASS" {
		out.Failed = out.Ops
		out.Failures = append(out.Failures, fmt.Sprintf("campaign seed %d verdict %s (%d violations, %d audit problems)",
			rep.Seed, rep.Verdict, len(rep.Violations), len(rep.AuditProblems)))
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		out.Failed = out.Ops
		out.Failures = append(out.Failures, "campaign JSON: "+err.Error())
	}
	out.Digest = digestOf(buf.Bytes())
	return out
}

func setupMeshChaos(seed uint64) (*instance, error) {
	topo, err := tnet.Generate("fattree", meshArity, seed)
	if err != nil {
		return nil, err
	}
	var rep *tnet.CampaignReport
	var ticks int64
	return &instance{
		iter: func() error {
			m, err := tnet.NewMesh(topo, meshOptions(seed, runtime.NumCPU()))
			if err != nil {
				return err
			}
			rep = tnet.RunCampaign(m, campaignOptions())
			ticks = m.Now()
			return nil
		},
		settle: func() iterOut { return summarizeCampaign(rep, ticks) },
	}, nil
}

// scratchDir makes a directory for files a workload must write (armed
// flight recorders, forensic bundles) under .bench_build in the current
// directory, so the benchmark never writes outside its checkout.
func scratchDir() (dir string, cleanup func(), err error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp(".bench_build", "scratch-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// Model-based scaled evaluation: the large-database answer to the
// question the paper's Table 1 leaves open. Cycle-accurate simulation of
// a million-route table is out of reach (the sequential scan alone is
// 10⁶ probes per datagram), so the evaluator calibrates a two-point
// linear cycle model from small cycle-accurate anchor runs —
//
//	cycles(n) = overhead + perProbe · probes(n)
//
// where the per-probe cost and the fixed per-datagram overhead come from
// the anchors' exact hardware access counters (Metrics.RTULoads), and
// probes(n) at the target size is measured on the software table with a
// sampled destination workload. The physical co-analysis then prices the
// table storage itself (estimate.TableSRAM), which the paper-scale flow
// can ignore but which dominates the die at 10⁵–10⁶ routes.
package core

import (
	"fmt"
	"math"

	"taco/internal/bits"
	"taco/internal/estimate"
	"taco/internal/fu"
	"taco/internal/program"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// DefaultAnchorEntries are the cycle-accurate calibration sizes: both
// small enough to simulate in milliseconds, far enough apart for a
// stable slope.
var DefaultAnchorEntries = [2]int{100, 400}

// DefaultSampleLookups is the destination-sample size for measuring
// probes(n) on the software table.
const DefaultSampleLookups = 512

// ScaleSpec parameterises one scaled evaluation.
type ScaleSpec struct {
	Kind    rtable.Kind
	Entries int
	// AnchorEntries overrides the calibration sizes (zero means
	// DefaultAnchorEntries).
	AnchorEntries [2]int
	// SampleLookups overrides the probe-measurement sample size.
	SampleLookups int
	// ChurnOps applies an update stream (workload.GenerateChurn) to the
	// target table before measurement, exercising the organisation's
	// update path at scale. Note the balanced tree re-derives its node
	// array per update — one linear pass, but O(n) per op: keep it small.
	ChurnOps int
}

// ScaleModel records the calibration behind a scaled Metrics row.
type ScaleModel struct {
	// AnchorEntries, AnchorCycles and AnchorProbes are the two
	// cycle-accurate calibration points (probes are per datagram, from
	// the RTU hardware counters).
	AnchorEntries [2]int
	AnchorCycles  [2]float64
	AnchorProbes  [2]float64
	// PerProbeCycles and OverheadCycles are the fitted line.
	PerProbeCycles float64
	OverheadCycles float64
	// DonorKind is the backend the anchors ran on. It differs from the
	// row's kind for table organisations without a forwarding kernel
	// (those with a registered rtable.Backend.StepFactor): they borrow
	// the balanced tree's anchors and scale the per-probe cost by that
	// factor (program.ModelPerProbe), flagged by Modelled.
	DonorKind rtable.Kind
	Modelled  bool
}

// Cache keys; a route set is keyed by its workload.LargeTableSpec.
type (
	churnKey struct {
		table workload.LargeTableSpec
		ops   int
	}
	destsKey struct {
		table     workload.LargeTableSpec
		n         int
		missRatio float64
	}
	anchorKey struct {
		cfg  fu.Config
		cons Constraints
		sim  SimOptions
	}
	// measureKey names one built table: the route set, churn stream and
	// sample it is measured under, and the kind it is built as.
	measureKey struct {
		dests destsKey
		ops   int
		built rtable.Kind
	}
)

// routeSet is a generated route set sorted in place, the batch every
// table is built from, and its draw order: route i of the draw, which
// the churn stream and the sample read, is sorted[at[i]].
type routeSet struct {
	sorted []rtable.Route
	at     []int32
}

// RouteSet returns the key of the route set a scaled evaluation of
// spec under sim reads (its table, churn stream and sample are drawn
// from it) and a job computing that set into c, or a nil job when the
// evaluation reads none: an analytic kind with no churn stream.
func (c *SweepCache) RouteSet(spec ScaleSpec, sim SimOptions) (lt workload.LargeTableSpec, job func()) {
	if sim.Packets <= 0 {
		sim = DefaultSimOptions()
	}
	lt = workload.LargeTableSpec{Entries: spec.Entries, Ifaces: sim.Ifaces, Seed: sim.Seed}
	if spec.Entries <= 0 || rtable.Backends[spec.Kind].AnalyticProbes != nil && spec.ChurnOps <= 0 {
		return lt, nil
	}
	return lt, func() { c.routes(lt) }
}

func (c *SweepCache) routes(lt workload.LargeTableSpec) routeSet {
	return cached(c, lt, func() routeSet {
		routes := workload.GenerateLargeRoutes(lt)
		at := make([]int32, len(routes))
		return routeSet{rtable.SortRoutesInPlace(routes, at), at}
	})
}

// anchorPoint is one cycle-accurate calibration run, or why it failed.
type anchorPoint struct {
	cycles, probes float64
	err            error
}

// anchor is keyed on what reaches the simulation — the donor
// configuration minus its display name, the constraints at the anchor
// size, the options — so kinds that share a donor share its anchors.
func (c *SweepCache) anchor(cfg fu.Config, cons Constraints, sim SimOptions) anchorPoint {
	key := anchorKey{cfg, cons, sim}
	key.cfg.Name = ""
	return cached(c, key, func() anchorPoint {
		am, err := c.Evaluate(cfg, cons, sim)
		if err != nil {
			return anchorPoint{err: fmt.Errorf("core: anchor %d entries: %w", cons.TableEntries, err)}
		}
		if am.RTULoads == 0 {
			return anchorPoint{err: fmt.Errorf("core: anchor %d entries: no RTU load counter", cons.TableEntries)}
		}
		return anchorPoint{cycles: am.CyclesPerPacket, probes: float64(am.RTULoads) / float64(am.PacketsRun)}
	})
}

// EvaluateScaled runs the scaling methodology for one (configuration,
// kind, size) instance. cfg's table kind must match spec.Kind; the
// returned Metrics carries the modelled cycles per packet, the required
// clock, and a physical estimate that includes the table SRAM.
func EvaluateScaled(cfg fu.Config, spec ScaleSpec, cons Constraints, sim SimOptions) (Metrics, error) {
	return new(SweepCache).EvaluateScaled(cfg, spec, cons, sim)
}

// EvaluateScaled is the package-level EvaluateScaled drawing its shared
// inputs from c; the result does not depend on what c already holds.
func (c *SweepCache) EvaluateScaled(cfg fu.Config, spec ScaleSpec, cons Constraints, sim SimOptions) (Metrics, error) {
	if cfg.Table != spec.Kind {
		return Metrics{}, fmt.Errorf("core: config table %v does not match scale spec %v", cfg.Table, spec.Kind)
	}
	if spec.Entries <= 0 {
		return Metrics{}, fmt.Errorf("core: scale spec needs a positive entry count")
	}
	if spec.AnchorEntries == ([2]int{}) {
		spec.AnchorEntries = DefaultAnchorEntries
	}
	if spec.SampleLookups <= 0 {
		spec.SampleLookups = DefaultSampleLookups
	}
	if sim.Packets <= 0 {
		sim = DefaultSimOptions()
	}

	// 1. Cycle-accurate anchors. Kinds without a forwarding kernel borrow
	// the balanced tree's (same prolog/epilog, so the fixed overhead
	// transfers; the per-probe slope is rescaled below).
	donor := spec.Kind
	modelled := rtable.Backends[spec.Kind].StepFactor != 0
	if modelled {
		donor = rtable.BalancedTree
	}
	anchorCfg := cfg
	anchorCfg.Table = donor
	model := ScaleModel{AnchorEntries: spec.AnchorEntries, DonorKind: donor, Modelled: modelled}
	for i, n := range spec.AnchorEntries {
		aCons := cons
		aCons.TableEntries = n
		a := c.anchor(anchorCfg, aCons, sim)
		if a.err != nil {
			return Metrics{}, a.err
		}
		model.AnchorCycles[i], model.AnchorProbes[i] = a.cycles, a.probes
	}
	dp := model.AnchorProbes[1] - model.AnchorProbes[0]
	if math.Abs(dp) > 1e-9 {
		model.PerProbeCycles = (model.AnchorCycles[1] - model.AnchorCycles[0]) / dp
	}
	model.OverheadCycles = model.AnchorCycles[0] - model.PerProbeCycles*model.AnchorProbes[0]
	if modelled {
		model.PerProbeCycles, _ = program.ModelPerProbe(spec.Kind, model.PerProbeCycles)
	}

	// 2. Probes at the target size. Analytic kinds (sequential and CAM:
	// probes = n and 1 by construction — their software scans would be
	// O(n·samples) for an answer we already know) are computed; tree and
	// trie kinds are measured on the built table under a sampled workload.
	avgProbes, dims, entries, err := c.measureProbes(spec, sim)
	if err != nil {
		return Metrics{}, err
	}

	// 3. Co-analysis at the modelled cycle count, with the table SRAM
	// added to the processor estimate.
	cycles := model.OverheadCycles + model.PerProbeCycles*avgProbes
	required := cycles * cons.PacketRate()
	est := estimate.Physical(cfg, required, cons.Tech)
	mem := estimate.TableSRAM(spec.Kind, dims, required, cons.Tech)
	est.AreaMM2 += mem.AreaMM2
	est.PowerW += mem.PowerW
	est.Breakdown = append(est.Breakdown, estimate.ModuleCost{
		Module: "tableSRAM", Count: 1, AreaMM2: mem.AreaMM2, PowerW: mem.PowerW,
	})

	return Metrics{
		Kind:               spec.Kind,
		Config:             cfg,
		CyclesPerPacket:    cycles,
		RequiredClockHz:    required,
		Est:                est,
		ClockFeasible:      est.Feasible,
		MeetsPower:         est.PowerW <= cons.MaxPowerW,
		MeetsArea:          est.AreaMM2 <= cons.MaxAreaMM2,
		CAMChipPowerW:      mem.CAMPowerW,
		TableEntries:       entries,
		AvgProbesPerPacket: avgProbes,
		TableMem:           &mem,
		ScaleModel:         &model,
	}, nil
}

// measureProbes returns the per-lookup probe count, storage dimensions
// and live entry count of spec.Kind at the target size.
func (c *SweepCache) measureProbes(spec ScaleSpec, sim SimOptions) (float64, rtable.MemDims, int, error) {
	lt, _ := c.RouteSet(spec, sim)
	var churn []workload.ChurnOp
	if spec.ChurnOps > 0 {
		churn = cached(c, churnKey{lt, spec.ChurnOps}, func() []workload.ChurnOp {
			set := c.routes(lt)
			return workload.GenerateChurnAt(set.sorted, set.at, workload.ChurnSpec{
				Ops: spec.ChurnOps, Seed: sim.Seed, Ifaces: sim.Ifaces,
			})
		})
	}

	if probes := rtable.Backends[spec.Kind].AnalyticProbes; probes != nil {
		// Net live entries after the churn stream. The route set itself
		// is never needed — GenerateLargeRoutes returns exactly Entries
		// routes — and TableSRAM derives the storage from the count.
		entries := spec.Entries
		for _, op := range churn {
			switch op.Op {
			case workload.ChurnInsert:
				entries++
			case workload.ChurnDelete:
				entries--
			}
		}
		return probes(entries), rtable.MemDims{Entries: entries}, entries, nil
	}

	key := measureKey{destsKey{lt, spec.SampleLookups, sim.MissRatio}, spec.ChurnOps, spec.Kind.BuiltAs()}
	m := cached(c, key, func() measurement { return c.measure(key, churn) })
	return m.avgProbes, m.dims[spec.Kind], m.entries, m.err
}

// measurement is what the scaled rows priced from one built table read
// off it: the probe average over the destination sample, the live
// entry count and, indexed by kind, the storage of every kind built as
// key.built. The table itself is dropped once measured.
type measurement struct {
	avgProbes float64
	entries   int
	dims      []rtable.MemDims
	err       error
}

// measure builds a key.built table from the sorted route set, plays the
// churn stream at it and looks up the destination sample.
func (c *SweepCache) measure(key measureKey, churn []workload.ChurnOp) measurement {
	lt := key.dests.table
	set := c.routes(lt)
	tbl := rtable.New(key.built)
	if err := rtable.InsertAll(tbl, set.sorted); err != nil {
		return measurement{err: fmt.Errorf("core: build %v table: %w", key.built, err)}
	}
	if len(churn) > 0 {
		if _, err := workload.ApplyChurn(tbl, churn); err != nil {
			return measurement{err: err}
		}
	}
	tbl.ResetStats()
	dests := cached(c, key.dests, func() []bits.Word128 {
		return workload.SampleDestsAt(set.sorted, set.at, key.dests.n, key.dests.missRatio, lt.Seed)
	})
	for _, dst := range dests {
		tbl.Lookup(dst)
	}
	st := tbl.Stats()
	m := measurement{avgProbes: float64(st.Probes) / float64(st.Lookups), entries: tbl.Len(),
		dims: make([]rtable.MemDims, len(rtable.Backends))}
	for _, k := range rtable.Kinds {
		if k.BuiltAs() == key.built {
			m.dims[k] = k.Dims(tbl)
		}
	}
	return m
}

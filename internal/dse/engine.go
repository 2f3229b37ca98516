package dse

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"taco/internal/core"
	"taco/internal/forensics"
	"taco/internal/fu"
	"taco/internal/obs"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// Instance is one architecture point queued for evaluation: a complete,
// self-contained (configuration, constraints, workload) triple. An
// evaluation builds its own routing table and processor and shares no
// mutable state with another; what instances of one sweep share — the
// routes and traffic of one (constraints, options) pair — is read-only
// (core.SweepCache), so instances evaluate safely on concurrent
// goroutines.
type Instance struct {
	// X is the swept parameter's value, carried into the resulting Point.
	X float64
	// Label names the instance in error messages ("table size 4096",
	// "3 buses", "cam/3BUS/1FU").
	Label string

	Cfg  fu.Config
	Cons core.Constraints
	Sim  core.SimOptions

	// Scale switches the instance to the model-based scaled evaluator
	// (core.EvaluateScaled) — the large-database axis, where
	// cycle-accurate simulation of the full table is infeasible. Nil
	// means the ordinary cycle-accurate core.Evaluate. Scaled instances
	// are as deterministic as simulated ones: anchors, table and sample
	// workload are all seeded.
	Scale *core.ScaleSpec
}

// evalOne dispatches an instance to its evaluator, which draws the
// inputs that are a pure function of the instance's constraints and
// options — its routes and traffic, a scaled instance's route set,
// sample and anchors — from the pool's shared cache.
func evalOne(inst Instance, shared *core.SweepCache) (core.Metrics, error) {
	if inst.Scale != nil {
		return shared.EvaluateScaled(inst.Cfg, *inst.Scale, inst.Cons, inst.Sim)
	}
	return shared.Evaluate(inst.Cfg, inst.Cons, inst.Sim)
}

// ProgressReport is one live progress snapshot from the worker pool,
// delivered after each completed instance.
type ProgressReport struct {
	Done, Total int
	// Label names the instance that just finished; InstanceWall is its
	// wall-clock evaluation time.
	Label        string
	InstanceWall time.Duration
	// Elapsed is the wall-clock time since the pool started.
	Elapsed time.Duration
}

// Rate returns the pool's aggregate throughput in instances/second.
func (r ProgressReport) Rate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Done) / r.Elapsed.Seconds()
}

// ETA estimates the remaining wall-clock time from the current rate.
func (r ProgressReport) ETA() time.Duration {
	rate := r.Rate()
	if rate == 0 {
		return 0
	}
	return time.Duration(float64(r.Total-r.Done) / rate * float64(time.Second))
}

// progressKey carries the progress callback through a context, so every
// engine entry point (Sweep, Table1, ExploreCtx) reports without
// changing its signature.
type progressKey struct{}

// timingKey marks a context as wanting per-instance wall times surfaced
// on the resulting Points (Point.WallNS).
type timingKey struct{}

// WithTiming returns a context under which Sweep stamps every Point
// with its instance's wall-clock evaluation time (Point.WallNS), and
// exports grow a wall_ns column. Off by default: wall times vary run to
// run, and the engine's exports are otherwise byte-identical for a
// given input regardless of worker count — a property the repository's
// determinism tests and CI pin.
func WithTiming(ctx context.Context) context.Context {
	return context.WithValue(ctx, timingKey{}, true)
}

// WithProgress returns a context that makes the evaluation engine call
// fn after every completed instance. fn is called with a lock held —
// reports never interleave — but from worker goroutines, so it must not
// block for long.
func WithProgress(ctx context.Context, fn func(ProgressReport)) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// ProgressPrinter returns a progress callback rendering a live one-line
// meter ("\r"-rewritten, newline-terminated on completion) to w —
// typically os.Stderr, keeping stdout clean for data exports. The p99
// figure is the running 99th percentile of per-instance evaluation time,
// folded through an obs.LatencyHist at microsecond resolution — the
// callback is serialized by the engine, so the histogram needs no lock.
func ProgressPrinter(w io.Writer) func(ProgressReport) {
	var wallHist obs.LatencyHist
	var totalWall time.Duration
	return func(r ProgressReport) {
		wallHist.Record(r.InstanceWall.Microseconds())
		totalWall += r.InstanceWall
		p99 := time.Duration(wallHist.Quantile(0.99)) * time.Microsecond
		fmt.Fprintf(w, "\r[%d/%d] %.1f inst/s, last %v (%s), p99 %v, ETA %v   ",
			r.Done, r.Total, r.Rate(),
			r.InstanceWall.Round(time.Millisecond), r.Label,
			p99.Round(time.Millisecond),
			r.ETA().Round(time.Second))
		if r.Done == r.Total {
			// Completion summary: aggregate wall time across instances
			// (CPU-seconds of evaluation) vs elapsed (wall-clock with
			// parallelism), plus the per-instance latency spread.
			p50 := time.Duration(wallHist.Quantile(0.5)) * time.Microsecond
			fmt.Fprintf(w, "\nsweep: %d instances in %v (%v of evaluation, per-instance p50 %v p99 %v)\n",
				r.Total, r.Elapsed.Round(time.Millisecond), totalWall.Round(time.Millisecond),
				p50.Round(time.Millisecond), p99.Round(time.Millisecond))
		}
	}
}

// evaluateInstances runs every instance across a pool of worker
// goroutines and returns results and errors indexed exactly like insts —
// the output order is the input order regardless of worker count, feed
// order (feedOrder) or completion order.
// workers <= 0 selects runtime.GOMAXPROCS(0).
//
// Cancelling ctx stops the job feed; the returned error is then the
// context's. Per-instance simulation errors do not abort the pool; the
// caller decides which of them matter.
func evaluateInstances(ctx context.Context, insts []Instance, workers int) ([]core.Metrics, []error, []time.Duration, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(insts) {
		workers = len(insts)
	}
	results := make([]core.Metrics, len(insts))
	errs := make([]error, len(insts))

	// Progress reporting is opt-in via WithProgress and per-instance
	// timing via WithTiming; when both are absent the workers take no
	// clock readings at all.
	report, _ := ctx.Value(progressKey{}).(func(ProgressReport))
	timing, _ := ctx.Value(timingKey{}).(bool)
	var walls []time.Duration
	if timing {
		walls = make([]time.Duration, len(insts))
	}
	var (
		start time.Time
		mu    sync.Mutex
		done  int
	)
	if report != nil {
		start = time.Now()
	}

	// An input that is a pure function of its key — one routes-and-
	// traffic set per (constraints, options), the scaled route sets and
	// anchors — is computed once per call and dropped with it; instances
	// still share no mutable state.
	var shared core.SweepCache
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if j.routeSet != nil {
					j.routeSet()
					continue
				}
				i := j.inst
				if report == nil && !timing {
					results[i], errs[i] = evalOne(insts[i], &shared)
					continue
				}
				t0 := time.Now()
				results[i], errs[i] = evalOne(insts[i], &shared)
				wall := time.Since(t0)
				if timing {
					walls[i] = wall
				}
				if report == nil {
					continue
				}
				mu.Lock()
				done++
				report(ProgressReport{
					Done: done, Total: len(insts),
					Label: insts[i].Label, InstanceWall: wall,
					Elapsed: time.Since(start),
				})
				mu.Unlock()
			}
		}()
	}
feed:
	for _, j := range feedOrder(insts, &shared) {
		select {
		case jobs <- j:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	return results, errs, walls, nil
}

// job is one unit of pool work: an instance, or a route set computed
// ahead of the instances that read it. stage and key rank it in the feed.
type job struct {
	inst       int // the instance, when routeSet is nil
	routeSet   func()
	stage, key int
}

// feedOrder lists the pool's jobs: one per distinct route set, largest
// first; then the instances that read none, largest table first (the
// sizes of one kind, which share an anchor, do not run side by side);
// then the rest by route set, smallest (soonest ready) first. No worker
// waits on a set while an instance that needs none is queued. Per
// 10⁴+10⁵ sweep of the six large kinds at 2 workers on 2 vCPUs
// (iter_p50_ms, medians of 10 alternating runs): 56.7 ms fed largest
// table first, 52.7 ms so. Results land by index and shared inputs are
// pure functions of their keys, so the feed order cannot reach the output.
func feedOrder(insts []Instance, shared *core.SweepCache) []job {
	var jobs []job
	queued := map[workload.LargeTableSpec]bool{}
	for i, inst := range insts {
		j := job{inst: i, stage: 1}
		if inst.Scale != nil {
			j.key = -inst.Scale.Entries
			if lt, compute := shared.RouteSet(*inst.Scale, inst.Sim); compute != nil {
				j.stage, j.key = 2, lt.Entries
				if !queued[lt] {
					queued[lt] = true
					jobs = append(jobs, job{routeSet: compute, key: -lt.Entries})
				}
			}
		}
		jobs = append(jobs, j)
	}
	slices.SortStableFunc(jobs, func(a, b job) int { return cmp.Or(a.stage-b.stage, a.key-b.key) })
	return jobs
}

// firstError returns the lowest-index instance error wrapped with its
// label, mirroring what a sequential scan would have reported first.
func firstError(insts []Instance, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("dse: %s: %w", insts[i].Label, err)
		}
	}
	return nil
}

// Sweep evaluates the instances on workers goroutines (workers <= 0
// selects runtime.GOMAXPROCS(0)) and returns one Point per instance in
// input order. The result is byte-for-byte independent of the worker
// count: every instance is fully determined by its seeds, and results
// are written to their input slot rather than collected by completion.
//
// Sweeps degrade gracefully: a failing instance (stalled simulation,
// table build error) marks its own Point.Err and the sweep continues —
// every other point is exactly what a fault-free sweep would have
// produced. Only context cancellation aborts the whole call.
func Sweep(ctx context.Context, insts []Instance, workers int) ([]Point, error) {
	results, errs, walls, err := evaluateInstances(ctx, insts, workers)
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(insts))
	for i, m := range results {
		out[i] = Point{X: insts[i].X, Metrics: m}
		if walls != nil {
			out[i].WallNS = walls[i].Nanoseconds()
		}
		if errs[i] != nil {
			out[i].Err = errs[i].Error()
			out[i].Bundle = forensics.BundlePath(errs[i])
			// Keep the instance's identity on the failed point so exports
			// can attribute the failure without cross-referencing inputs.
			out[i].Metrics.Kind = insts[i].Cfg.Table
			out[i].Metrics.Config = insts[i].Cfg
		}
	}
	return out, nil
}

// Table1Instances lists the paper's nine Table 1 cells in row order.
func Table1Instances(cons core.Constraints, sim core.SimOptions) []Instance {
	var insts []Instance
	for _, kind := range rtable.PaperKinds {
		for _, cfg := range fu.PaperConfigs(kind) {
			insts = append(insts, Instance{
				Label: fmt.Sprintf("%v/%s", kind, cfg.Name),
				Cfg:   cfg, Cons: cons, Sim: sim,
			})
		}
	}
	return insts
}

// Table1 evaluates the paper's nine Table 1 cells on workers goroutines,
// in the paper's row order (Table1Instances).
func Table1(ctx context.Context, cons core.Constraints, sim core.SimOptions, workers int) ([]core.Metrics, error) {
	insts := Table1Instances(cons, sim)
	results, errs, _, err := evaluateInstances(ctx, insts, workers)
	if err != nil {
		return nil, err
	}
	if err := firstError(insts, errs); err != nil {
		return nil, err
	}
	return results, nil
}

// TableSizeInstances lists cfg over growing routing tables: sequential
// search time is linear, the balanced tree's logarithmic.
func TableSizeInstances(cfg fu.Config, sizes []int, cons core.Constraints, sim core.SimOptions) []Instance {
	var insts []Instance
	for _, n := range sizes {
		c := cons
		c.TableEntries = n
		insts = append(insts, Instance{
			X: float64(n), Label: fmt.Sprintf("table size %d", n),
			Cfg: cfg, Cons: c, Sim: sim,
		})
	}
	return insts
}

// BusInstances lists a kind across interconnection widths 1..maxBuses
// with one FU of each type.
func BusInstances(kind rtable.Kind, maxBuses int, cons core.Constraints, sim core.SimOptions) []Instance {
	var insts []Instance
	for b := 1; b <= maxBuses; b++ {
		cfg := fu.Config1Bus1FU(kind)
		cfg.Buses = b
		cfg.Name = fmt.Sprintf("%dBUS/1FU", b)
		insts = append(insts, Instance{
			X: float64(b), Label: fmt.Sprintf("%d buses", b),
			Cfg: cfg, Cons: cons, Sim: sim,
		})
	}
	return insts
}

// PacketSizeInstances lists cfg across datagram sizes; small-packet line
// rate is the hard case.
func PacketSizeInstances(cfg fu.Config, sizes []int, cons core.Constraints, sim core.SimOptions) []Instance {
	var insts []Instance
	for _, s := range sizes {
		c := cons
		c.PacketBytes = s
		insts = append(insts, Instance{
			X: float64(s), Label: fmt.Sprintf("packet size %d", s),
			Cfg: cfg, Cons: c, Sim: sim,
		})
	}
	return insts
}

// LargeTableKinds is the default kind set for the large-database axis:
// the backends registered with LargeSweep. The binary trie is excluded:
// at 10⁶ routes its per-bit nodes cost gigabytes of host memory for a
// structure the sweep already brackets from both sides (it is available
// explicitly via -table-kind trie).
var LargeTableKinds = rtable.KindsWhere(func(b *rtable.Backend) bool { return b.LargeSweep })

// LargeTableInstances builds the kind × size grid of the large-database
// sweep: every instance is a 1-bus/1-FU processor evaluated by the
// scaled model (cycle-accurate anchors + measured probe counts + table
// SRAM co-analysis). churnOps > 0 additionally plays an update stream
// into each table before measurement.
func LargeTableInstances(kinds []rtable.Kind, sizes []int, churnOps int, cons core.Constraints, sim core.SimOptions) []Instance {
	if len(kinds) == 0 {
		kinds = LargeTableKinds
	}
	var insts []Instance
	for _, kind := range kinds {
		for _, n := range sizes {
			c := cons
			c.TableEntries = n
			insts = append(insts, Instance{
				X:     float64(n),
				Label: fmt.Sprintf("%v/%d", kind, n),
				Cfg:   fu.Config1Bus1FU(kind),
				Cons:  c, Sim: sim,
				Scale: &core.ScaleSpec{Kind: kind, Entries: n, ChurnOps: churnOps},
			})
		}
	}
	return insts
}

// ReplicationInstances lists a kind at 3 buses with 1..maxRepl
// counters/comparators/matchers, the paper's second exploration axis.
func ReplicationInstances(kind rtable.Kind, maxRepl int, cons core.Constraints, sim core.SimOptions) []Instance {
	var insts []Instance
	for r := 1; r <= maxRepl; r++ {
		cfg := fu.Config3Bus1FU(kind)
		cfg.Counters, cfg.Comparators, cfg.Matchers = r, r, r
		cfg.Name = fmt.Sprintf("3BUS/%dCNT,%dCMP,%dM", r, r, r)
		insts = append(insts, Instance{
			X: float64(r), Label: fmt.Sprintf("replication %d", r),
			Cfg: cfg, Cons: cons, Sim: sim,
		})
	}
	return insts
}

// ExploreCtx performs the automated design-space exploration on workers
// goroutines (workers <= 0 selects GOMAXPROCS): every (implementation,
// buses, replication) instance up to maxBuses and maxRepl is simulated
// and the whole grid is ranked. No instance is skipped by a heuristic: a
// wider instance needs a lower clock, so it can cost less power than a
// narrower one. Results are stored by input index, so the Ranked list
// and Best pick are identical for every worker count.
func ExploreCtx(ctx context.Context, cons core.Constraints, sim core.SimOptions, maxBuses, maxRepl, workers int) (*ExploreResult, error) {
	var insts []Instance
	for _, kind := range rtable.PaperKinds {
		for repl := 1; repl <= maxRepl; repl++ {
			for b := 1; b <= maxBuses; b++ {
				cfg := fu.Config1Bus1FU(kind)
				cfg.Buses = b
				cfg.Counters, cfg.Comparators, cfg.Matchers = repl, repl, repl
				cfg.Name = fmt.Sprintf("%dBUS/%dCNT,%dCMP,%dM", b, repl, repl, repl)
				insts = append(insts, Instance{
					Label: fmt.Sprintf("%v/%s", kind, cfg.Name),
					Cfg:   cfg, Cons: cons, Sim: sim,
				})
			}
		}
	}
	results, errs, _, err := evaluateInstances(ctx, insts, workers)
	if err != nil {
		return nil, err
	}
	res := &ExploreResult{}
	order := make([]int, len(results))
	for i := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		order[i] = i
	}
	// Best first; the stable sort keeps scan order among equal scores.
	sort.SliceStable(order, func(i, j int) bool { return core.Score(results[order[i]]) < core.Score(results[order[j]]) })
	for _, i := range order {
		res.Ranked = append(res.Ranked, Candidate{Metrics: results[i], Score: core.Score(results[i])})
	}
	if len(res.Ranked) > 0 && res.Ranked[0].Metrics.Acceptable() {
		res.Best, res.OK = res.Ranked[0], true
	}
	if sim.Compiled && res.OK {
		// Compiled grids carry an always-on oracle for the pick that
		// matters: the winner is re-evaluated with the interpreter, and
		// any divergence fails the exploration (see compiled.go).
		winner := insts[order[0]]
		winner.Label = "best " + winner.Label
		if err := ReplayInterpreted(ctx, []Instance{winner}, []core.Metrics{res.Best.Metrics}, 1, 1); err != nil {
			return nil, err
		}
	}
	return res, nil
}

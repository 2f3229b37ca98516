package fault

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"taco/internal/forensics"
	"taco/internal/fu"
	"taco/internal/obs"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// SoakOptions configures a soak run: repeated seeded campaigns of
// mutated traffic driven through the golden and TACO routers
// differentially.
type SoakOptions struct {
	// Campaigns is the number of independent campaigns (fresh table,
	// traffic and fault stream each). Default 4.
	Campaigns int
	// Packets per campaign. Default 64.
	Packets int
	// Entries in each campaign's routing table. Default 64.
	Entries int
	// Ifaces is the network interface count. Default 4.
	Ifaces int
	// Seed derives every campaign's table, traffic and fault seeds.
	Seed uint64
	// Spec is the fault spec (see ParseSpec). Empty means "all" at
	// DefaultProb.
	Spec string
	// Config is the TACO architecture instance. Zero value means the
	// 3-bus balanced-tree configuration.
	Config fu.Config
	// MaxCycles is the per-campaign watchdog budget; 0 picks a generous
	// default scaled to the workload (a stall is then a real bug, not a
	// tight budget).
	MaxCycles int64
	// Compiled runs the soak's TACO router through the compiled fast
	// path (bit-identical to the interpreter by contract — the soak is
	// one of the contract's enforcers). The program is compiled once per
	// RunSoak worker and serves every campaign that worker runs.
	Compiled bool
	// ForensicsDir, when non-empty, arms the router's flight recorder
	// (cleared at the start of every campaign) and serializes a
	// forensic bundle for every failure the soak observes — a stall, a
	// golden-vs-TACO fate divergence, or a drop-audit mismatch. Bundle
	// paths are collected in SoakReport.Bundles, and each bundle
	// replays with cmd/tacoreplay.
	ForensicsDir string
}

func (o *SoakOptions) defaults() {
	if o.Campaigns <= 0 {
		o.Campaigns = 4
	}
	if o.Packets <= 0 {
		o.Packets = 64
	}
	if o.Entries <= 0 {
		o.Entries = 64
	}
	if o.Ifaces <= 0 {
		o.Ifaces = 4
	}
	if o.Config.Buses == 0 {
		o.Config = fu.Config3Bus1FU(rtable.BalancedTree)
	}
	if o.Spec == "" {
		o.Spec = "all"
	}
}

// SoakReport aggregates a soak run. A clean run has Stalls,
// Mismatches and Unexplained all zero: every campaign finished within
// budget, golden and TACO agreed on every datagram's fate and output
// bytes and on every card's per-reason drop counts, and every
// machine-level drop was attributed to the taxonomy.
type SoakReport struct {
	Campaigns int
	Packets   int64 // datagrams generated across all campaigns
	Delivered int64 // accepted by the line cards
	Forwarded int64
	Local     int64
	Dropped   int64
	// Drops breaks Dropped down by reason (TACO's accounting; equal to
	// golden's when Mismatches is zero).
	Drops obs.DropCounters
	// Mutations counts applied mutators by name.
	Mutations map[string]int64
	// Stalls counts campaigns killed by the watchdog.
	Stalls int
	// Mismatches counts golden-vs-TACO disagreements (router.Compare:
	// one per datagram whose fate or output bytes differ, one per card
	// whose drop counters differ).
	Mismatches int
	// Unexplained counts machine drops the audit could not attribute.
	Unexplained int64
	// Bundles lists the forensic bundles written for this run's
	// failures (SoakOptions.ForensicsDir only), in campaign order.
	Bundles []string `json:",omitempty"`
}

// Clean reports whether the run surfaced no divergence at all.
func (r SoakReport) Clean() bool {
	return r.Stalls == 0 && r.Mismatches == 0 && r.Unexplained == 0
}

// String renders the human-readable soak summary.
func (r SoakReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: %d campaigns, %d datagrams (%d delivered)\n",
		r.Campaigns, r.Packets, r.Delivered)
	fmt.Fprintf(&b, "  forwarded %d, local %d, dropped %d\n", r.Forwarded, r.Local, r.Dropped)
	if m := r.Drops.Map(); len(m) > 0 {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, "    %-20s %d\n", k, m[k])
		}
	}
	if len(r.Mutations) > 0 {
		names := make([]string, 0, len(r.Mutations))
		for k := range r.Mutations {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("  mutations:")
		for _, k := range names {
			fmt.Fprintf(&b, " %s=%d", k, r.Mutations[k])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  stalls %d, mismatches %d, unexplained drops %d", r.Stalls, r.Mismatches, r.Unexplained)
	if r.Clean() {
		b.WriteString(" — clean")
	}
	return b.String()
}

// campaignSeed spreads the base seed across campaigns (splitmix64's
// increment keeps consecutive campaigns decorrelated).
func campaignSeed(base uint64, c int) uint64 {
	return base + uint64(c)*0x9e3779b97f4a7c15
}

// RunSoak drives o.Campaigns independent campaigns. Each campaign
// generates a routing table and traffic from its seed, mutates the
// traffic through the fault spec, and checks the TACO router (drop audit
// enabled) against the golden router over identical bytes and one table
// (router.TACO.RunChecked): every datagram's action, output interface and
// output bytes, and every card's per-reason drop counts. The golden side
// reads the campaign's own table, not a second, sequential one
// (router.ReferenceOutcomes): the soak targets the forwarding kernel
// under faulted traffic (FuzzLPMBackends targets the backends), and one
// more table per campaign costs 13 % in bytes allocated per datagram.
// Divergence is counted, not fatal: a soak run completes and reports, it
// does not stop at the first bad campaign.
//
// Campaigns are handed out, lowest first, to min(GOMAXPROCS, Campaigns)
// workers. The TACO router is built once per worker — machine,
// forwarding program, schedule and, with o.Compiled, the compiled step
// path — because every campaign shares o.Config and the program depends
// on nothing else. Each campaign rebinds its worker's router to its own
// freshly built table, which also resets it to power-on state, so a
// campaign after a stall starts as clean as the first and no campaign
// sees which worker ran it. Results are merged in campaign order, so the
// report and its bundle list do not depend on the worker count.
//
// An error is reported as a serial run would: the report merged through
// the lowest failing campaign, and that campaign's error. Once a
// campaign fails no further campaign is started.
func RunSoak(o SoakOptions) (SoakReport, error) {
	o.defaults()
	rep := SoakReport{Campaigns: o.Campaigns, Mutations: map[string]int64{}}
	first, err := newSoakRouter(o)
	if err != nil {
		return rep, err
	}
	budget := o.MaxCycles
	if budget <= 0 {
		budget = router.WatchdogBudget(o.Packets, o.Entries)
	}
	type slot struct {
		rep SoakReport // this campaign's counts alone
		err error
	}
	slots := make([]slot, o.Campaigns)
	var next atomic.Int64
	var failed atomic.Bool
	work := func(tr *router.TACO) {
		for !failed.Load() {
			c := int(next.Add(1) - 1)
			if c >= o.Campaigns {
				return
			}
			s := &slots[c]
			if s.err = runCampaign(o, tr, c, budget, &s.rep); s.err != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), o.Campaigns); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The same options built first's router, so this cannot fail
			// differently; should it fail, the other workers take its share.
			if tr, err := newSoakRouter(o); err == nil {
				work(tr)
			}
		}()
	}
	work(first)
	wg.Wait()
	// Every campaign below the lowest failing one was handed out before
	// it, so has run; campaigns above it are not merged.
	for c := range slots {
		rep.add(slots[c].rep)
		if err := slots[c].err; err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// newSoakRouter builds one soak worker's router: drop audit on, the
// flight recorder armed when bundles are wanted, and the compiled step
// path when asked for.
func newSoakRouter(o SoakOptions) (*router.TACO, error) {
	tr, err := router.NewTACO(o.Config, rtable.New(o.Config.Table), o.Ifaces)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	tr.EnableDropAudit()
	if o.ForensicsDir != "" {
		tr.ArmRecorder(0)
	}
	if o.Compiled {
		if err := tr.UseCompiled(); err != nil {
			return nil, fmt.Errorf("fault: %w", err)
		}
	}
	return tr, nil
}

// add merges one campaign's counts into r.
func (r *SoakReport) add(c SoakReport) {
	r.Packets += c.Packets
	r.Delivered += c.Delivered
	r.Forwarded += c.Forwarded
	r.Local += c.Local
	r.Dropped += c.Dropped
	r.Drops.Merge(c.Drops)
	for name, n := range c.Mutations {
		r.Mutations[name] += n
	}
	r.Stalls += c.Stalls
	r.Mismatches += c.Mismatches
	r.Unexplained += c.Unexplained
	r.Bundles = append(r.Bundles, c.Bundles...)
}

// runCampaign runs campaign c on tr, counting into rep, which starts
// empty. On error rep holds what the campaign counted before it failed.
func runCampaign(o SoakOptions, tr *router.TACO, c int, budget int64, rep *SoakReport) error {
	seed := campaignSeed(o.Seed, c)
	routes := workload.GenerateRoutes(workload.TableSpec{
		Entries: o.Entries, Ifaces: o.Ifaces, Seed: seed,
	})
	tbl := rtable.New(o.Config.Table)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		return fmt.Errorf("fault: campaign %d: %w", c, err)
	}
	pkts, err := workload.GenerateTraffic(routes, workload.TrafficSpec{
		Packets:          o.Packets,
		SizeBytes:        128,
		MissRatio:        0.1,
		HopLimitOneRatio: 0.05,
		Seed:             seed,
	})
	if err != nil {
		return fmt.Errorf("fault: campaign %d: %w", c, err)
	}
	inj, err := ParseSpec(o.Spec, seed^0xda942042e4dd58b5)
	if err != nil {
		return err
	}
	for i := range pkts {
		pkts[i].Data = inj.Apply(pkts[i].Data)
	}
	rep.Mutations = inj.Counts()

	arrivals := router.RoundRobin(pkts, o.Ifaces)
	want := router.NewGolden(tbl, o.Ifaces).Expected(arrivals)
	if err := tr.Rebind(tbl); err != nil {
		return fmt.Errorf("fault: campaign %d: %w", c, err)
	}
	run, err := tr.RunChecked(arrivals, want, budget, nil)
	rep.Packets += int64(len(pkts))
	rep.Delivered += run.Delivered
	if o.ForensicsDir != "" {
		base := forensics.NewRouterBundle("", fmt.Sprintf("campaign-%d", c),
			o.Config, o.Ifaces, routes, arrivals, run.Delivered, budget, o.Compiled)
		base.Seed = seed
		base.FaultSpec = o.Spec
		for _, b := range base.Failures(tr, run, err) {
			path, err := b.Save(o.ForensicsDir)
			if err != nil {
				return fmt.Errorf("fault: campaign %d: forensics capture: %w", c, err)
			}
			rep.Bundles = append(rep.Bundles, path)
		}
	}
	if errors.Is(err, router.ErrStall) {
		rep.Stalls++
		return nil // campaign lost; the soak itself goes on
	}
	if err != nil {
		return fmt.Errorf("fault: campaign %d: %w", c, err)
	}
	rep.Unexplained += run.Unexplained
	for _, d := range run.Outcomes.Datagrams {
		switch d.Action {
		case router.Forward:
			rep.Forwarded++
		case router.Local:
			rep.Local++
		default:
			rep.Dropped++
		}
	}
	for _, st := range tr.QueueStats() {
		rep.Drops.Merge(st.Drops)
	}
	rep.Mismatches += len(run.Diff.Seqs) + len(run.Diff.Cards)
	return nil
}

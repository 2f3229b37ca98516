package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"

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
	// RunSoak and serves every campaign.
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
// The TACO router is built once per call — machine, forwarding program,
// schedule and, with o.Compiled, the compiled step path — because every
// campaign shares o.Config and the program depends on nothing else. Each
// campaign rebinds it to its own freshly built table, which also resets
// it to power-on state, so a campaign after a stall starts as clean as
// the first.
func RunSoak(o SoakOptions) (SoakReport, error) {
	o.defaults()
	rep := SoakReport{Campaigns: o.Campaigns, Mutations: map[string]int64{}}
	tr, err := router.NewTACO(o.Config, rtable.New(o.Config.Table), o.Ifaces)
	if err != nil {
		return rep, fmt.Errorf("fault: %w", err)
	}
	tr.EnableDropAudit()
	if o.ForensicsDir != "" {
		tr.ArmRecorder(0)
	}
	if o.Compiled {
		if err := tr.UseCompiled(); err != nil {
			return rep, fmt.Errorf("fault: %w", err)
		}
	}
	budget := o.MaxCycles
	if budget <= 0 {
		budget = router.WatchdogBudget(o.Packets, o.Entries)
	}
	for c := 0; c < o.Campaigns; c++ {
		seed := campaignSeed(o.Seed, c)
		routes := workload.GenerateRoutes(workload.TableSpec{
			Entries: o.Entries, Ifaces: o.Ifaces, Seed: seed,
		})
		tbl := rtable.New(o.Config.Table)
		if err := rtable.InsertAll(tbl, routes); err != nil {
			return rep, fmt.Errorf("fault: campaign %d: %w", c, err)
		}
		pkts, err := workload.GenerateTraffic(routes, workload.TrafficSpec{
			Packets:          o.Packets,
			SizeBytes:        128,
			MissRatio:        0.1,
			HopLimitOneRatio: 0.05,
			Seed:             seed,
		})
		if err != nil {
			return rep, fmt.Errorf("fault: campaign %d: %w", c, err)
		}
		inj, err := ParseSpec(o.Spec, seed^0xda942042e4dd58b5)
		if err != nil {
			return rep, err
		}
		for i := range pkts {
			pkts[i].Data = inj.Apply(pkts[i].Data)
		}
		for name, n := range inj.Counts() {
			rep.Mutations[name] += n
		}

		arrivals := router.RoundRobin(pkts, o.Ifaces)
		want := router.NewGolden(tbl, o.Ifaces).Expected(arrivals)
		if err := tr.Rebind(tbl); err != nil {
			return rep, fmt.Errorf("fault: campaign %d: %w", c, err)
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
					return rep, fmt.Errorf("fault: campaign %d: forensics capture: %w", c, err)
				}
				rep.Bundles = append(rep.Bundles, path)
			}
		}
		if errors.Is(err, router.ErrStall) {
			rep.Stalls++
			continue // campaign lost; the soak itself goes on
		}
		if err != nil {
			return rep, fmt.Errorf("fault: campaign %d: %w", c, err)
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
	}
	return rep, nil
}

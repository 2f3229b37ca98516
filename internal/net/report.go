package net

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// CampaignReport is one campaign's full deterministic verdict: the same
// seed produces byte-identical text, CSV and JSON for any worker count.
type CampaignReport struct {
	Topo     string `json:"topo"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	Diameter int    `json:"diameter"`
	Mix      string `json:"mix"`
	Table    string `json:"table"`
	Seed     uint64 `json:"seed"`

	InitialTicks      int64  `json:"initial_ticks"`
	InitialOK         bool   `json:"initial_ok"`
	InitialDivergence string `json:"initial_divergence,omitempty"`

	Flaps          int      `json:"flaps"`
	PartitionEdges int      `json:"partition_edges"`
	Crashes        int      `json:"crashes"`
	Storms         int      `json:"storms"`
	ChaosTicks     int64    `json:"chaos_ticks"`
	ChaosProbes    int      `json:"chaos_probes"`
	Events         []string `json:"events,omitempty"`

	ReconvergeTicks      int64  `json:"reconverge_ticks"`
	ReconvergeOK         bool   `json:"reconverge_ok"`
	ReconvergeDivergence string `json:"reconverge_divergence,omitempty"`
	NextHopUnsound       string `json:"next_hop_unsound,omitempty"`

	SweepLaunched     int  `json:"sweep_launched"`
	SweepDelivered    int  `json:"sweep_delivered"`
	InjectedViolation bool `json:"injected_violation,omitempty"`

	Injected  int64         `json:"probes_injected"`
	Delivered int64         `json:"probes_delivered"`
	Deaths    []ReasonCount `json:"probe_deaths,omitempty"`
	InFlight  int64         `json:"probes_in_flight"`

	Ctrl CtrlStats `json:"ctrl"`

	TACOHops        int64 `json:"taco_hops"`
	TACODivergences int64 `json:"taco_divergences"`
	Stalls          int64 `json:"stalls"`
	Quarantined     []int `json:"quarantined,omitempty"`

	WatchOn            bool `json:"watch_on,omitempty"`
	MaxUpwardRevisions int  `json:"max_upward_revisions,omitempty"`

	AuditProblems []string    `json:"audit_problems,omitempty"`
	Violations    []Violation `json:"violations,omitempty"`
	Bundles       []string    `json:"bundles,omitempty"`

	Verdict string `json:"verdict"`
}

// WriteText renders the campaign verdict for humans.
func (r *CampaignReport) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %s mix=%s table=%s seed=%d\n", r.Topo, r.Mix, r.Table, r.Seed)
	fmt.Fprintf(&b, "  graph: %d nodes, %d edges, diameter %d\n", r.Nodes, r.Edges, r.Diameter)
	fmt.Fprintf(&b, "  initial convergence: %d ticks ok=%v\n", r.InitialTicks, r.InitialOK)
	if r.InitialDivergence != "" {
		fmt.Fprintf(&b, "    divergence: %s\n", r.InitialDivergence)
	}
	fmt.Fprintf(&b, "  chaos window: %d ticks, %d flaps, partition cut %d edges, %d crashes, %d storms, %d probes\n",
		r.ChaosTicks, r.Flaps, r.PartitionEdges, r.Crashes, r.Storms, r.ChaosProbes)
	for _, e := range r.Events {
		fmt.Fprintf(&b, "    %s\n", e)
	}
	fmt.Fprintf(&b, "  reconvergence: %d ticks ok=%v\n", r.ReconvergeTicks, r.ReconvergeOK)
	if r.ReconvergeDivergence != "" {
		fmt.Fprintf(&b, "    divergence: %s\n", r.ReconvergeDivergence)
	}
	if r.NextHopUnsound != "" {
		fmt.Fprintf(&b, "  next-hop soundness: %s\n", r.NextHopUnsound)
	}
	fmt.Fprintf(&b, "  verdict sweep: %d/%d delivered\n", r.SweepDelivered, r.SweepLaunched)
	fmt.Fprintf(&b, "  probes: %d injected, %d delivered, %d in flight\n", r.Injected, r.Delivered, r.InFlight)
	for _, d := range r.Deaths {
		fmt.Fprintf(&b, "    death %-20s %d\n", d.Reason, d.Count)
	}
	fmt.Fprintf(&b, "  ctrl: %d delivered, %d lost-down, %d lost-random, %d garbage, %d node-down\n",
		r.Ctrl.LinkDelivered, r.Ctrl.LostDown, r.Ctrl.LostRandom, r.Ctrl.Garbage, r.Ctrl.NodeDown)
	fmt.Fprintf(&b, "  taco: %d hops, %d divergences, %d stalls, quarantined %v\n",
		r.TACOHops, r.TACODivergences, r.Stalls, r.Quarantined)
	if r.WatchOn {
		fmt.Fprintf(&b, "  max upward metric revisions: %d\n", r.MaxUpwardRevisions)
	}
	for _, p := range r.AuditProblems {
		fmt.Fprintf(&b, "  AUDIT: %s\n", p)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION tick %d node %d [%s]: %s\n", v.Tick, v.Node, v.Invariant, v.Detail)
		if v.Bundle != "" {
			fmt.Fprintf(&b, "    bundle: %s\n", v.Bundle)
		}
	}
	for _, p := range r.Bundles {
		fmt.Fprintf(&b, "  bundle: %s\n", p)
	}
	fmt.Fprintf(&b, "  verdict: %s\n", r.Verdict)
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the campaign verdict as key,value rows.
func (r *CampaignReport) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("key,value\n")
	row := func(k string, v any) { fmt.Fprintf(&b, "%s,%v\n", k, v) }
	row("topo", r.Topo)
	row("nodes", r.Nodes)
	row("edges", r.Edges)
	row("diameter", r.Diameter)
	row("mix", r.Mix)
	row("table", r.Table)
	row("seed", r.Seed)
	row("initial_ticks", r.InitialTicks)
	row("initial_ok", r.InitialOK)
	row("chaos_ticks", r.ChaosTicks)
	row("flaps", r.Flaps)
	row("partition_edges", r.PartitionEdges)
	row("crashes", r.Crashes)
	row("storms", r.Storms)
	row("chaos_probes", r.ChaosProbes)
	row("reconverge_ticks", r.ReconvergeTicks)
	row("reconverge_ok", r.ReconvergeOK)
	row("sweep_launched", r.SweepLaunched)
	row("sweep_delivered", r.SweepDelivered)
	row("probes_injected", r.Injected)
	row("probes_delivered", r.Delivered)
	row("probes_in_flight", r.InFlight)
	for _, d := range r.Deaths {
		row("death_"+d.Reason, d.Count)
	}
	row("ctrl_delivered", r.Ctrl.LinkDelivered)
	row("ctrl_lost_down", r.Ctrl.LostDown)
	row("ctrl_lost_random", r.Ctrl.LostRandom)
	row("ctrl_garbage", r.Ctrl.Garbage)
	row("taco_hops", r.TACOHops)
	row("taco_divergences", r.TACODivergences)
	row("stalls", r.Stalls)
	row("quarantined", len(r.Quarantined))
	row("max_upward_revisions", r.MaxUpwardRevisions)
	row("audit_problems", len(r.AuditProblems))
	row("violations", len(r.Violations))
	row("bundles", len(r.Bundles))
	row("verdict", r.Verdict)
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the campaign verdict as indented JSON.
func (r *CampaignReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// CurvePoint is one convergence-time measurement: a topology at a size,
// cold-started, run to FIB-vs-oracle equality.
type CurvePoint struct {
	Topo      string `json:"topo"`
	Kind      string `json:"kind"`
	Size      int    `json:"size"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Diameter  int    `json:"diameter"`
	Prefixes  int    `json:"prefixes"`
	Ticks     int64  `json:"ticks"`
	Converged bool   `json:"converged"`
}

// ConvergenceCurve cold-starts the named topology at each size and
// measures ticks to whole-network convergence.
func ConvergenceCurve(kind string, sizes []int, opt Options) ([]CurvePoint, error) {
	var pts []CurvePoint
	for _, size := range sizes {
		topo, err := Generate(kind, size, opt.Seed)
		if err != nil {
			return nil, err
		}
		m, err := NewMesh(topo, opt)
		if err != nil {
			return nil, err
		}
		ticks, ok := m.RunUntilConverged(m.convergeBudget())
		pts = append(pts, CurvePoint{
			Topo: topo.Name, Kind: topo.Kind, Size: size, Nodes: topo.N,
			Edges: len(topo.Edges), Diameter: m.diameter,
			Prefixes: len(topo.StubOwners), Ticks: ticks, Converged: ok,
		})
	}
	return pts, nil
}

// WriteCurvesText renders a convergence curve as an aligned table.
func WriteCurvesText(w io.Writer, pts []CurvePoint) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %6s %6s %9s %9s %6s %10s\n",
		"topo", "size", "nodes", "edges", "diameter", "prefixes", "ticks", "converged")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-16s %6d %6d %6d %9d %9d %6d %10v\n",
			p.Topo, p.Size, p.Nodes, p.Edges, p.Diameter, p.Prefixes, p.Ticks, p.Converged)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCurvesCSV renders a convergence curve as CSV.
func WriteCurvesCSV(w io.Writer, pts []CurvePoint) error {
	var b strings.Builder
	b.WriteString("topo,kind,size,nodes,edges,diameter,prefixes,ticks,converged\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%d,%d,%v\n",
			p.Topo, p.Kind, p.Size, p.Nodes, p.Edges, p.Diameter, p.Prefixes, p.Ticks, p.Converged)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCurvesJSON renders a convergence curve as indented JSON.
func WriteCurvesJSON(w io.Writer, pts []CurvePoint) error {
	data, err := json.MarshalIndent(pts, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

package core

import (
	"fmt"

	"taco/internal/forensics"
	"taco/internal/fu"
	"taco/internal/obs"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// captureBundle serializes the failed evaluation into a forensic bundle
// and wraps the original error with the bundle path (Bundle.Capture).
func captureBundle(dir string, cfg fu.Config, sim SimOptions,
	routes []rtable.Route, pkts []workload.Packet, expected, budget int64, runErr error) error {
	se, ok := forensics.AsStall(runErr)
	if !ok {
		return runErr
	}
	label := fmt.Sprintf("%s/%s", cfg.Table, cfg.Name)
	b := forensics.NewRouterBundle(forensics.KindStall, label, cfg, sim.Ifaces,
		routes, router.RoundRobin(pkts, sim.Ifaces), expected, budget, sim.Compiled)
	b.Seed = sim.Seed
	b.RecorderCap = obs.DefaultRecorderCap
	b.AttachStall(se)
	return b.Capture(dir, runErr)
}

// DivergenceBundle builds a compiled-vs-interpreted divergence bundle
// for an evaluation instance, regenerating the exact workload Evaluate
// ran (same derivation, see simInputs). The note should describe the
// observed divergence (the diffMetrics text); tacoreplay -diff then
// re-executes both paths over the identical inputs and reports the
// first diverging recorded event.
func DivergenceBundle(cfg fu.Config, cons Constraints, sim SimOptions, note string) (*forensics.Bundle, error) {
	if sim.Packets <= 0 {
		sim = DefaultSimOptions()
	}
	routes, pkts, budget, err := simInputs(cons, sim)
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("%s/%s", cfg.Table, cfg.Name)
	b := forensics.NewRouterBundle(forensics.KindCompiledDivergence, label, cfg, sim.Ifaces,
		routes, router.RoundRobin(pkts, sim.Ifaces), int64(len(pkts)), budget, true)
	b.Seed = sim.Seed
	b.RecorderCap = obs.DefaultRecorderCap
	b.Note = note
	return b, nil
}

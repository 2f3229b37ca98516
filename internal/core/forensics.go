package core

import (
	"fmt"

	"taco/internal/forensics"
	"taco/internal/fu"
)

// bundle is the replay-input half of a forensic bundle of the given kind
// for cfg's run over in (see forensics.NewRouterBundle).
func (in simSet) bundle(kind string, cfg fu.Config, sim SimOptions, expected int64, compiled bool) *forensics.Bundle {
	b := forensics.NewRouterBundle(kind, fmt.Sprintf("%s/%s", cfg.Table, cfg.Name), cfg, sim.Ifaces,
		in.routes, in.arrivals, expected, in.budget, compiled)
	b.Seed = sim.Seed
	return b
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
	in := simInputs(cons, sim)
	if in.err != nil {
		return nil, in.err
	}
	b := in.bundle(forensics.KindCompiledDivergence, cfg, sim, int64(len(in.arrivals)), true)
	b.Note = note
	return b, nil
}

package core

import (
	"fmt"
	"math"

	"taco/internal/fu"
	"taco/internal/rtable"
)

// EvaluateCAMConverged resolves the circularity the fixed-latency CAM
// model hides: the CAM+SRAM search takes a fixed *time* (40 ns in the
// paper), so the number of processor cycles it occupies depends on the
// clock — but the required clock depends on the cycle count. This
// evaluator iterates wait = ceil(searchNs × f) until the pair
// (wait cycles, required clock) reaches a fixed point.
//
// At the paper's operating points the loop converges immediately (at
// ≤125 MHz, 5 cycles always cover 40 ns), but under harsher constraints
// (64-byte line-rate traffic) the interaction becomes visible: a faster
// required clock makes the search cost more cycles, which pushes the
// required clock further up.
func EvaluateCAMConverged(cfg fu.Config, cons Constraints, sim SimOptions) (Metrics, int, error) {
	if cfg.Table != rtable.CAM {
		return Metrics{}, 0, fmt.Errorf("core: converged evaluation applies to CAM configurations")
	}
	searchNs := rtable.DefaultCAMConfig().SearchNs
	wait := cfg.CAMWaitCycles // Evaluate rejects a wait below 1
	var m Metrics
	var shared SweepCache // every iteration simulates the same workload
	for iter := 1; ; iter++ {
		c := cfg
		c.CAMWaitCycles = wait
		var err error
		m, err = shared.Evaluate(c, cons, sim)
		if err != nil {
			return Metrics{}, iter, err
		}
		needed := int(math.Ceil(searchNs * 1e-9 * m.RequiredClockHz))
		if needed < 1 {
			needed = 1
		}
		if needed == wait {
			return m, iter, nil
		}
		if iter >= 16 {
			return m, iter, fmt.Errorf("core: CAM latency fixed point did not converge (wait %d → %d)", wait, needed)
		}
		// Move monotonically toward the larger demand to avoid cycling
		// between two adjacent values.
		if needed > wait {
			wait = needed
		} else {
			wait--
		}
	}
}

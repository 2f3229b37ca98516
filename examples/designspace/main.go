// designspace reproduces the paper's §4 evaluation: Table 1 over the
// nine (routing-table implementation × architecture instance) pairs,
// the configuration selection, the CAM power-parity argument, and the
// automated exploration the paper lists as future work.
package main

import (
	"context"
	"fmt"
	"log"

	"taco"
)

func main() {
	cons := taco.PaperConstraints()
	sim := taco.DefaultSimOptions()

	fmt.Printf("evaluating %d architecture instances against %0.f Gbps / %d-entry constraints...\n\n",
		9, cons.ThroughputBps/1e9, cons.TableEntries)
	metrics, err := taco.EvaluateAll(cons, sim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(taco.FormatTable1(metrics))

	// Configuration selection (the paper's final step).
	if best, ok := taco.SelectBest(metrics); ok {
		fmt.Printf("\nselected: %s table on %s — %s, %.1f mm², %.2f W",
			best.Kind, best.Config.Name, taco.FormatHz(best.RequiredClockHz),
			best.Est.AreaMM2, best.Est.PowerW)
		if best.CAMChipPowerW > 0 {
			fmt.Printf(" (+%.2f W external CAM chip)", best.CAMChipPowerW)
		}
		fmt.Println()
	}

	// The Pareto shortlist across all nine instances.
	fmt.Println("\nPareto frontier (required clock / area / power):")
	for _, m := range taco.Pareto(metrics) {
		fmt.Printf("  %-14s %-18s %10s %7.1f mm² %6.2f W\n",
			m.Kind, m.Config.Name, taco.FormatHz(m.RequiredClockHz),
			m.Est.AreaMM2, m.Est.PowerW)
	}

	// Automated exploration over a wider space (paper §5 future work).
	res, err := taco.ExploreCtx(context.Background(), cons, sim, 4, 3, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nautomated exploration: %d instances simulated, %d pruned by the heuristic\n",
		res.Evaluated, res.Pruned)
	if res.OK {
		m := res.Best.Metrics
		fmt.Printf("recommended: %s table, %s — %s, %.2f W\n",
			m.Kind, m.Config.Name, taco.FormatHz(m.RequiredClockHz), m.Est.PowerW)
	}
}

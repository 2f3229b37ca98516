// Largetable: the scaling study the paper's Table 1 stops short of.
// Sweeps table kind × database size from paper scale (100 routes) to a
// backbone-scale FIB (1M routes) with the model-based scaled evaluator,
// then shows the multibit trie's internals on a million-route table:
// per-level probe histogram, path-compression effect and SRAM verdict.
package main

import (
	"context"
	"fmt"
	"log"

	"taco"
	"taco/internal/rtable"
	"taco/internal/workload"
)

func main() {
	cons := taco.PaperConstraints()
	sim := taco.DefaultSimOptions()

	// 1. Kind × size grid via the scaled evaluator (cycle-accurate
	// anchors at 100/400 entries, measured probe counts at the target
	// size, table SRAM added to the physical estimate).
	sizes := []int{100, 10000, 1000000}
	kinds := []taco.TableKind{taco.Sequential, taco.BalancedTree, taco.CAM, taco.Multibit}
	pts, err := taco.Sweep(context.Background(), taco.LargeTableInstances(kinds, sizes, 0, cons, sim), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("table kind × size (1BUS/1FU):")
	for _, p := range pts {
		m := p.Metrics
		verdict := "OK"
		switch {
		case !m.ClockFeasible:
			verdict = "NA (clock)"
		case !m.MeetsArea:
			verdict = "exceeds area budget"
		case !m.MeetsPower:
			verdict = "exceeds power budget"
		}
		fmt.Printf("  %-13s %8d routes: %10.1f cycles/pkt, %6.1f probes/pkt — %s\n",
			m.Kind, m.TableEntries, m.CyclesPerPacket, m.AvgProbesPerPacket, verdict)
	}

	// 2. Inside the multibit trie at a million routes.
	routes := taco.GenerateLargeRoutes(workload.LargeTableSpec{Entries: 1000000, Seed: sim.Seed})
	tbl := rtable.NewMultibit(rtable.DefaultMultibitConfig())
	if err := tbl.InsertAll(routes); err != nil {
		log.Fatal(err)
	}
	for _, dst := range workload.SampleDests(routes, 4096, 0.05, sim.Seed) {
		tbl.Lookup(dst)
	}
	dims := tbl.MemDims()
	fmt.Printf("\nmultibit trie at %d routes (strides %v):\n",
		tbl.Len(), rtable.DefaultMultibitStrides)
	fmt.Printf("  depth %d; storage by region:\n", tbl.Depth())
	for _, r := range dims.Regions {
		fmt.Printf("    %-8s %9d × %3d bit\n", r.Name, r.Records, r.Bits)
	}
	fmt.Println("  probe histogram by trie level (4096 sampled lookups):")
	for lvl, n := range tbl.LevelProbes() {
		if n == 0 {
			continue
		}
		fmt.Printf("    level %2d: %6d probes\n", lvl, n)
	}
}

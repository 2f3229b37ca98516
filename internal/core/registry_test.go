// The half of the backend-registry contract that needs the simulator:
// which kinds the router machine and the forwarding program accept, the
// kernel factors of the kinds they do not, and the large-table default.
package core_test

import (
	"slices"
	"testing"

	"taco/internal/dse"
	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/program"
	"taco/internal/rtable"
)

// TestPaperKindsAreSimulated: a kind is a paper kind exactly when the
// router machine builds an RTU over its table and the forwarding program
// has a lookup kernel for it.
func TestPaperKindsAreSimulated(t *testing.T) {
	tree := fu.Config1Bus1FU(rtable.BalancedTree)
	treeMachine, _, err := fu.NewRouterMachine(tree, rtable.New(rtable.BalancedTree), linecard.NewBank(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range rtable.Kinds {
		cfg := fu.Config1Bus1FU(k)
		m, _, err := fu.NewRouterMachine(cfg, rtable.New(k), linecard.NewBank(5))
		hasRTU := err == nil
		if !hasRTU {
			m = treeMachine // Forwarding rejects by kind before it needs k's sockets
		}
		_, _, err = program.Forwarding(m, cfg)
		hasKernel := err == nil
		if paper := slices.Contains(rtable.PaperKinds, k); paper != (hasRTU && hasKernel) {
			t.Errorf("%v: paper kind %v, RTU %v, kernel %v", k, paper, hasRTU, hasKernel)
		}
	}
}

// TestModelPerProbeFactors pins the kernel factors of the kinds with no
// forwarding program, relative to the balanced tree's per-probe cost.
func TestModelPerProbeFactors(t *testing.T) {
	want := map[rtable.Kind]float64{
		rtable.Trie: 0.30, rtable.Multibit: 0.45, rtable.TiledTCAM: 0.40, rtable.Compressed: 0.55,
	}
	for _, tree := range []float64{1, 7.25, 13.184210526315789} {
		for _, k := range rtable.Kinds {
			got, ok := program.ModelPerProbe(k, tree)
			f, modelled := want[k]
			if ok != modelled || modelled && got != tree*f || !modelled && got != 0 {
				t.Errorf("ModelPerProbe(%v, %g) = %g, %v; want factor %g", k, tree, got, ok, f)
			}
		}
	}
}

// TestLargeTableKinds pins the large-table sweep's default kind set.
func TestLargeTableKinds(t *testing.T) {
	want := []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM,
		rtable.Multibit, rtable.TiledTCAM, rtable.Compressed}
	if !slices.Equal(dse.LargeTableKinds, want) {
		t.Fatalf("LargeTableKinds = %v, want %v", dse.LargeTableKinds, want)
	}
}

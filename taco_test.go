package taco_test

import (
	"context"
	"strings"
	"testing"

	"taco/internal/core"
	"taco/internal/dse"
	"taco/internal/estimate"
	"taco/internal/fu"
	"taco/internal/rtable"
)

// TestPublicAPIQuickstart walks the README's quickstart path: evaluate
// an instance, regenerate Table 1 and select from it.
func TestPublicAPIQuickstart(t *testing.T) {
	cons := core.PaperConstraints()
	sim := core.SimOptions{Packets: 16, Seed: 1, MissRatio: 0.05, Ifaces: 4}

	m, err := core.Evaluate(fu.Config3Bus1FU(rtable.CAM), cons, sim)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Acceptable() {
		t.Error("CAM 3-bus unacceptable")
	}

	ms, err := dse.Table1(context.Background(), cons, sim, 0)
	if err != nil {
		t.Fatal(err)
	}
	table := core.FormatTable1(ms)
	if !strings.Contains(table, "CAM") || !strings.Contains(table, "NA") {
		t.Errorf("Table 1 rendering incomplete:\n%s", table)
	}
	if best, ok := core.SelectBest(ms); !ok || best.Kind != rtable.CAM {
		t.Errorf("SelectBest = %v, %v", best.Kind, ok)
	}
}

func TestPublicAPIEstimation(t *testing.T) {
	e := estimate.Physical(fu.Config3Bus3FU(rtable.BalancedTree), 250e6, estimate.Default180nm())
	if !e.Feasible || e.AreaMM2 <= 0 || e.PowerW <= 0 {
		t.Errorf("estimate = %+v", e)
	}
	if got := estimate.FormatHz(250e6); got != "250 MHz" {
		t.Errorf("FormatHz = %q", got)
	}
}

package core_test

import (
	"context"
	"strings"
	"testing"

	"taco/internal/core"
	"taco/internal/dse"
	"taco/internal/rtable"
)

// table1 evaluates the paper's nine Table 1 cells through dse.Table1 on
// a small workload.
func table1(t *testing.T) []core.Metrics {
	t.Helper()
	sim := core.SimOptions{Packets: 24, Seed: 2003, MissRatio: 0.05, Ifaces: 4}
	ms, err := dse.Table1(context.Background(), core.PaperConstraints(), sim, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestTable1Shape is the headline reproduction check: the measured table
// preserves the paper's qualitative structure.
func TestTable1Shape(t *testing.T) {
	ms := table1(t)
	if len(ms) != 9 {
		t.Fatalf("%d rows, want 9", len(ms))
	}
	byName := map[string]core.Metrics{}
	for _, m := range ms {
		byName[m.Kind.String()+"/"+m.Config.Name] = m
		if _, ok := core.PaperRowFor(m); !ok {
			t.Errorf("no paper row for %v/%s", m.Kind, m.Config.Name)
		}
	}

	// Within each implementation, required clock decreases monotonically
	// down the column, as in the paper.
	for _, kind := range []string{"sequential", "balanced-tree", "cam"} {
		a := byName[kind+"/1BUS/1FU"].RequiredClockHz
		b := byName[kind+"/3BUS/1FU"].RequiredClockHz
		c := byName[kind+"/3BUS/3CNT,3CMP,3M"].RequiredClockHz
		if !(a > b && b >= c) {
			t.Errorf("%s column not decreasing: %.3g %.3g %.3g", kind, a, b, c)
		}
	}

	// Implementation ordering: sequential needs the highest clock, CAM
	// the lowest, for every configuration.
	for _, cfg := range []string{"1BUS/1FU", "3BUS/1FU", "3BUS/3CNT,3CMP,3M"} {
		s := byName["sequential/"+cfg].RequiredClockHz
		tr := byName["balanced-tree/"+cfg].RequiredClockHz
		c := byName["cam/"+cfg].RequiredClockHz
		if !(s > tr && tr > c) {
			t.Errorf("%s: ordering violated: seq %.3g, tree %.3g, cam %.3g", cfg, s, tr, c)
		}
	}

	// The paper's key infeasibility findings.
	if byName["sequential/1BUS/1FU"].ClockFeasible {
		t.Error("sequential 1-bus must exceed the technology ceiling")
	}
	if byName["sequential/3BUS/1FU"].ClockFeasible {
		t.Error("sequential 3-bus must exceed the technology ceiling")
	}
	for _, row := range []string{"cam/1BUS/1FU", "cam/3BUS/1FU", "cam/3BUS/3CNT,3CMP,3M"} {
		if !byName[row].ClockFeasible {
			t.Errorf("%s must be feasible", row)
		}
	}

	// 1-bus rows saturate their single bus (the paper reports 100%).
	for _, kind := range []string{"sequential", "balanced-tree"} {
		if u := byName[kind+"/1BUS/1FU"].BusUtilization; u < 0.95 {
			t.Errorf("%s 1-bus utilization %.2f, want ~1.0", kind, u)
		}
	}

	// CAM rows are insensitive to FU replication (paper §4: multiplying
	// FUs "does not anymore seem to offer considerable increase").
	b3 := byName["cam/3BUS/1FU"].RequiredClockHz
	f3 := byName["cam/3BUS/3CNT,3CMP,3M"].RequiredClockHz
	if delta := (b3 - f3) / b3; delta > 0.15 {
		t.Errorf("CAM rows too sensitive to FU count: %.3g vs %.3g", b3, f3)
	}
}

func TestSelectBest(t *testing.T) {
	ms := table1(t)
	best, ok := core.SelectBest(ms)
	if !ok {
		t.Fatal("no acceptable configuration found")
	}
	// The lowest-power acceptable configuration must be a CAM row (the
	// slowest clocks by far).
	if best.Kind != rtable.CAM {
		t.Errorf("best = %v/%s, expected a CAM row", best.Kind, best.Config.Name)
	}
	// Nothing acceptable must beat it on score, nor on power: the area
	// term only breaks ties.
	for _, m := range ms {
		if m.Acceptable() && (core.Score(m) < core.Score(best) || m.Est.PowerW < best.Est.PowerW) {
			t.Errorf("SelectBest missed %v/%s", m.Kind, m.Config.Name)
		}
	}
}

func TestCAMPowerParity(t *testing.T) {
	// Paper §4: "the total power consumed when using a CAM processor to
	// handle routing table searches is approximately the same as when
	// using only a TACO processor for it."
	ms := table1(t)
	var camTotal, treeBest float64
	for _, m := range ms {
		if m.Kind == rtable.CAM && m.Config.Name == "3BUS/1FU" {
			camTotal = m.Est.PowerW + m.CAMChipPowerW
		}
		if m.Kind == rtable.BalancedTree && m.Config.Name == "3BUS/3CNT,3CMP,3M" && m.ClockFeasible {
			treeBest = m.Est.PowerW
		}
	}
	if camTotal == 0 || treeBest == 0 {
		t.Fatal("rows missing")
	}
	ratio := camTotal / treeBest
	if ratio < 0.3 || ratio > 8 {
		t.Errorf("CAM total %.2f W vs TACO-only %.2f W: not the same order (ratio %.2f)",
			camTotal, treeBest, ratio)
	}
}

func TestFormatTable1(t *testing.T) {
	ms := table1(t)
	s := core.FormatTable1(ms)
	for _, want := range []string{"Sequential", "Balanced tree", "CAM", "NA", "Bus util.", "6 GHz"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	t.Logf("\n%s", s)
}

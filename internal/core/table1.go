package core

import (
	"fmt"
	"strings"

	"taco/internal/estimate"
	"taco/internal/rtable"
)

// PaperRow is one published row of Table 1 for comparison in reports.
type PaperRow struct {
	Kind          rtable.Kind
	ConfigName    string
	RequiredHz    float64
	BusUtil       float64 // fraction; <0 when the cell is unavailable
	EstimatedInNA bool    // the paper reports NA for area/power
}

// PaperTable1 holds the cells of Table 1 that survive in the available
// paper text: the required clock column for all nine rows, the 100% bus
// utilization of the 1-bus rows, and which rows the paper marked NA.
// The numeric area/power cells are corrupted in the source text;
// EXPERIMENTS.md discusses them qualitatively.
var PaperTable1 = []PaperRow{
	{rtable.Sequential, "1BUS/1FU", 6e9, 1.0, true},
	{rtable.Sequential, "3BUS/1FU", 2e9, 1.0, true},
	{rtable.Sequential, "3BUS/3CNT,3CMP,3M", 1e9, -1, false},
	{rtable.BalancedTree, "1BUS/1FU", 1.2e9, 1.0, true},
	{rtable.BalancedTree, "3BUS/1FU", 600e6, -1, false},
	{rtable.BalancedTree, "3BUS/3CNT,3CMP,3M", 250e6, -1, false},
	{rtable.CAM, "1BUS/1FU", 118e6, -1, false},
	{rtable.CAM, "3BUS/1FU", 40e6, -1, false},
	{rtable.CAM, "3BUS/3CNT,3CMP,3M", 35e6, -1, false},
}

// PaperRowFor finds the published row matching m.
func PaperRowFor(m Metrics) (PaperRow, bool) {
	for _, r := range PaperTable1 {
		if r.Kind == m.Kind && r.ConfigName == m.Config.Name {
			return r, true
		}
	}
	return PaperRow{}, false
}

// FormatTable1 renders measured metrics in the layout of the paper's
// Table 1, with the paper's published required-clock column alongside
// for comparison.
func FormatTable1(ms []Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-18s %12s %12s %9s %10s %9s\n",
		"Routing Table", "Architecture", "Req. speed", "(paper)", "Bus util.", "Area", "Avg power")
	fmt.Fprintf(&b, "%-14s %-18s %12s %12s %9s %10s %9s\n",
		"implementation", "configuration", "", "", "[%]", "[mm2]", "[W]")
	b.WriteString(strings.Repeat("-", 92) + "\n")
	lastKind := rtable.Kind(-1)
	for _, m := range ms {
		kindLabel := ""
		if m.Kind != lastKind {
			kindLabel = rtable.Backends[m.Kind].Label
			lastKind = m.Kind
		}
		paperHz := "-"
		if pr, ok := PaperRowFor(m); ok {
			paperHz = estimate.FormatHz(pr.RequiredHz)
		}
		area, power := "NA", "NA"
		if m.ClockFeasible {
			area = fmt.Sprintf("%.1f", m.Est.AreaMM2)
			power = fmt.Sprintf("%.2f", m.Est.PowerW)
		}
		fmt.Fprintf(&b, "%-14s %-18s %12s %12s %9.0f %10s %9s\n",
			kindLabel, m.Config.Name,
			estimate.FormatHz(m.RequiredClockHz), paperHz,
			m.BusUtilization*100, area, power)
	}
	b.WriteString(strings.Repeat("-", 92) + "\n")
	b.WriteString("NA: required clock exceeds the 0.18um ceiling (~1 GHz), as in the paper.\n")
	b.WriteString("CAM rows exclude the external CAM chip (Micron Harmony class, 1.5-2 W).\n")
	return b.String()
}

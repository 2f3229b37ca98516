package dse

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"

	"taco/internal/core"
)

// csvHeader is the column set shared by all sweep exports. The latency
// columns carry the per-packet store-to-transmit percentiles in machine
// cycles; model-based (scaled) instances have no per-packet records and
// export zeros there.
var csvHeader = []string{
	"x", "kind", "config", "cycles_per_packet", "bus_utilization",
	"required_clock_hz", "area_mm2", "power_w", "cam_power_w",
	"clock_feasible", "acceptable",
	"latency_p50", "latency_p90", "latency_p99", "latency_p999",
	"err", "bundle",
}

// WriteCSV exports sweep points as CSV for external plotting (the
// figures a longer paper would draw from Table 1's underlying sweeps).
// A wall_ns column is appended only when the sweep ran under
// WithTiming, keeping default exports byte-identical run to run.
func WriteCSV(w io.Writer, points []Point) error {
	timed := anyTimed(points)
	cw := csv.NewWriter(w)
	header := csvHeader
	if timed {
		header = append(append([]string(nil), csvHeader...), "wall_ns")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range points {
		row := metricsRow(p.X, p.Metrics, p.Err, p.Bundle)
		if timed {
			row = append(row, fmt.Sprintf("%d", p.WallNS))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// anyTimed reports whether any point carries a wall time (WithTiming).
func anyTimed(points []Point) bool {
	for _, p := range points {
		if p.WallNS > 0 {
			return true
		}
	}
	return false
}

// instanceJSON is the machine-readable export of one evaluated
// instance: the full co-analysed Metrics (including the observability
// fields when SimOptions.Observe collected them) plus the derived
// verdict and, for sweep points, the swept parameter's value.
type instanceJSON struct {
	X *float64 `json:",omitempty"`
	core.Metrics
	// Kind shadows the embedded numeric enum with its name.
	Kind       string
	Acceptable bool
	// Err marks a failed instance (graceful sweep degradation); Bundle
	// is its forensic-bundle path when one was captured.
	Err    string `json:",omitempty"`
	Bundle string `json:",omitempty"`
	// WallNS is the instance's evaluation wall time (WithTiming only).
	WallNS int64 `json:",omitempty"`
}

func jsonPoints(points []instanceJSON, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(points)
}

// WriteJSON exports sweep points as an indented JSON array, one object
// per instance carrying the swept X value.
func WriteJSON(w io.Writer, points []Point) error {
	out := make([]instanceJSON, len(points))
	for i, p := range points {
		x := p.X
		out[i] = instanceJSON{X: &x, Metrics: p.Metrics,
			Kind: p.Metrics.Kind.String(), Acceptable: p.Metrics.Acceptable() && p.Err == "",
			Err: p.Err, Bundle: p.Bundle, WallNS: p.WallNS}
	}
	return jsonPoints(out, w)
}

// WriteMetricsJSON exports evaluation rows (e.g. the Table 1 set) as an
// indented JSON array in input order.
func WriteMetricsJSON(w io.Writer, ms []core.Metrics) error {
	out := make([]instanceJSON, len(ms))
	for i, m := range ms {
		out[i] = instanceJSON{Metrics: m, Kind: m.Kind.String(), Acceptable: m.Acceptable()}
	}
	return jsonPoints(out, w)
}

func metricsRow(x float64, m core.Metrics, errStr, bundle string) []string {
	return []string{
		fmt.Sprintf("%g", x),
		m.Kind.String(),
		m.Config.Name,
		fmt.Sprintf("%.2f", m.CyclesPerPacket),
		fmt.Sprintf("%.4f", m.BusUtilization),
		fmt.Sprintf("%.0f", m.RequiredClockHz),
		fmt.Sprintf("%.2f", m.Est.AreaMM2),
		fmt.Sprintf("%.3f", m.Est.PowerW),
		fmt.Sprintf("%.3f", m.CAMChipPowerW),
		fmt.Sprintf("%t", m.ClockFeasible),
		fmt.Sprintf("%t", m.Acceptable() && errStr == ""),
		fmt.Sprintf("%d", m.LatencyP50),
		fmt.Sprintf("%d", m.LatencyP90),
		fmt.Sprintf("%d", m.LatencyP99),
		fmt.Sprintf("%d", m.LatencyP999),
		errStr,
		bundle,
	}
}

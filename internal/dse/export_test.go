package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"taco/internal/core"
	"taco/internal/fu"
	"taco/internal/rtable"
)

// TestJSONExportDeterminism extends the engine's determinism contract
// to the structured export: the JSON emitted from workers=1 and
// workers=8 runs — with the observability counters enabled — must be
// byte-identical.
func TestJSONExportDeterminism(t *testing.T) {
	cons := core.PaperConstraints()
	sim := testSim()
	sim.Observe = true
	insts := Table1Instances(cons, sim)
	insts = append(insts, BusInstances(rtable.CAM, 3, cons, sim)...)

	export := func(workers int) []byte {
		pts, err := Sweep(context.Background(), insts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, pts); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ms := make([]core.Metrics, len(pts))
		for i, p := range pts {
			ms[i] = p.Metrics
		}
		if err := WriteMetricsJSON(&buf, ms); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return buf.Bytes()
	}

	serial := export(1)
	parallel := export(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("workers=1 and workers=8 JSON exports differ")
	}
}

// TestJSONExportShape checks the export parses back and carries the
// fields downstream tooling keys on, including the per-FU counters
// collected under SimOptions.Observe.
func TestJSONExportShape(t *testing.T) {
	cons := core.PaperConstraints()
	sim := testSim()
	sim.Observe = true
	m, err := core.Evaluate(fu.Config3Bus1FU(rtable.BalancedTree), cons, sim)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, []core.Metrics{m}); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	row := rows[0]
	if row["Kind"] != "balanced-tree" && row["Kind"] != m.Kind.String() {
		t.Errorf("Kind = %v, want the kind's name %q", row["Kind"], m.Kind.String())
	}
	for _, key := range []string{"CyclesPerPacket", "BusUtilization", "RequiredClockHz",
		"Acceptable", "FUUtilization", "BusOccupancy", "LineCards",
		"LatencyCount", "LatencyP50", "LatencyP99", "LatencyP999"} {
		if _, ok := row[key]; !ok {
			t.Errorf("export missing %q", key)
		}
	}
	if p50, p99 := row["LatencyP50"].(float64), row["LatencyP99"].(float64); p50 <= 0 || p99 < p50 {
		t.Errorf("latency percentiles malformed: p50=%v p99=%v", p50, p99)
	}
	fus, ok := row["FUUtilization"].([]any)
	if !ok || len(fus) == 0 {
		t.Fatalf("FUUtilization = %v, want a non-empty array", row["FUUtilization"])
	}
	// Utilizations must be fractions of executed cycles.
	for _, f := range fus {
		u := f.(map[string]any)["Utilization"].(float64)
		if u < 0 || u > 1 {
			t.Errorf("FU utilization %g out of [0,1]", u)
		}
	}
	// X is a sweep-only field and must be omitted for plain metrics rows.
	if _, ok := row["X"]; ok {
		t.Error("metrics export carries a sweep X value")
	}
}

// TestWritePromPoints: a sweep (including a latency histogram per
// instance) folds into one valid Prometheus document, with failed
// points contributing nothing.
func TestWritePromPoints(t *testing.T) {
	pts, err := Sweep(context.Background(), BusInstances(rtable.CAM, 2, core.PaperConstraints(), testSim()), 0)
	if err != nil {
		t.Fatal(err)
	}
	pts = append(pts, Point{Err: "synthetic failure"})
	var buf bytes.Buffer
	if err := WritePromPoints(&buf, map[string]string{"sweep": "buses-cam"}, pts); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{
		`taco_packets_total{sweep="buses-cam"} 32`, // 2 instances x 16 packets
		"taco_latency_cycles_count",
		"taco_sched_stall_cycles_total",
		`taco_latency_quantile_cycles{sweep="buses-cam",quantile="0.99"} `,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("sweep exposition missing %q in:\n%s", want, doc)
		}
	}
	// The merged histogram must carry every instance's records.
	var total int64
	for _, p := range pts {
		if p.Err == "" {
			total += p.Metrics.LatencyCount
		}
	}
	if total == 0 || !strings.Contains(doc, fmt.Sprintf("taco_latency_cycles_count{sweep=\"buses-cam\"} %d", total)) {
		t.Errorf("merged latency count %d not exposed", total)
	}
}

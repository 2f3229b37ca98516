package obs

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"taco/internal/ipv6"
)

// checkPromSyntax is a minimal exposition-format validator: every
// non-comment line is `name{labels} value` with a parseable float
// value, every sample's family was announced by HELP/TYPE, and
// histogram bucket counts are cumulative and consistent with _count.
func checkPromSyntax(t *testing.T, doc string) {
	t.Helper()
	families := map[string]string{} // family -> type
	var histCum int64
	var histLast int64 // value of the +Inf bucket
	sc := bufio.NewScanner(strings.NewReader(doc))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			f := strings.Fields(line)
			if len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("malformed comment line %q", line)
			}
			if f[1] == "TYPE" {
				families[f[2]] = f[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced label braces in %q", line)
			}
			name = series[:i]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok && families[f] == "histogram" {
				family = f
			}
		}
		if _, ok := families[family]; !ok {
			t.Fatalf("sample %q has no TYPE announcement", name)
		}
		if strings.HasSuffix(name, "_bucket") {
			v, _ := strconv.ParseInt(val, 10, 64)
			if v < histCum {
				t.Fatalf("histogram bucket counts not cumulative at %q: %d < %d", line, v, histCum)
			}
			histCum = v
			if strings.Contains(series, `le="+Inf"`) {
				histLast = v
				histCum = 0 // next histogram starts fresh
			}
		}
		if strings.HasSuffix(name, "_count") && families[family] == "histogram" {
			v, _ := strconv.ParseInt(val, 10, 64)
			if v != histLast {
				t.Fatalf("histogram _count %d != +Inf bucket %d", v, histLast)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func renderProm(t *testing.T, s MetricSnapshot) string {
	t.Helper()
	var b strings.Builder
	if err := WriteProm(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWritePromEmpty: even a zero snapshot exposes the stable schema —
// cycle count, all five stall causes per family, and an empty latency
// histogram with its quantile gauges.
func TestWritePromEmpty(t *testing.T) {
	doc := renderProm(t, MetricSnapshot{})
	checkPromSyntax(t, doc)
	for _, want := range []string{
		"taco_cycles_total 0\n",
		`taco_latency_cycles_bucket{le="+Inf"} 0` + "\n",
		"taco_latency_cycles_sum 0\n",
		"taco_latency_cycles_count 0\n",
		`taco_latency_quantile_cycles{quantile="0.999"} 0` + "\n",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("empty snapshot missing %q", want)
		}
	}
	for c := StallCause(0); c < NumStallCauses; c++ {
		for _, fam := range []string{"taco_sched_stall_cycles_total", "taco_stall_cycles_total"} {
			want := fmt.Sprintf("%s{cause=%q} 0\n", fam, c.String())
			if !strings.Contains(doc, want) {
				t.Errorf("empty snapshot missing zero-valued %q", want)
			}
		}
	}
	if strings.Contains(doc, "taco_packets_total") || strings.Contains(doc, "taco_bus_encoded_total") {
		t.Errorf("empty snapshot exposed optional families:\n%s", doc)
	}
}

func TestWritePromFull(t *testing.T) {
	c := NewCounters(2, 2, 4)
	c.Cycles = 100
	c.BusEncoded[0], c.BusEncoded[1] = 80, 40
	c.BusExecuted[0], c.BusExecuted[1] = 70, 30
	c.UnitTriggers[0], c.UnitTriggers[1] = 25, 50
	c.UnitResults[0], c.UnitResults[1] = 20, 45
	c.SocketReads[1] = 60
	c.SocketWrites[3] = 55
	var d DropCounters
	d[ipv6.DropHopLimit] = 3
	var h LatencyHist
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	var sched, dyn StallCounters
	sched.AddN(StallSocketHazard, 12)
	dyn.AddN(StallQueueBackpressure, 4)

	s := MetricSnapshot{
		Labels:          map[string]string{"config": "r4", "kind": "tree"},
		Packets:         32,
		CyclesPerPacket: 3.125,
		Counters:        c,
		UnitNames:       []string{"cmp0"}, // deliberately short: unit 1 falls back to its index
		SocketNames:     []string{"s0", "cmp0.t", "cmp0.o", "cmp0.r"},
		Drops:           &d,
		SchedStalls:     sched,
		Stalls:          dyn,
		Latency:         &h,
	}
	doc := renderProm(t, s)
	checkPromSyntax(t, doc)
	for _, want := range []string{
		`taco_cycles_total{config="r4",kind="tree"} 100`,
		`taco_packets_total{config="r4",kind="tree"} 32`,
		`taco_cycles_per_packet{config="r4",kind="tree"} 3.125`,
		`taco_bus_encoded_total{config="r4",kind="tree",bus="1"} 40`,
		`taco_bus_occupancy{config="r4",kind="tree",bus="0"} 0.8`,
		`taco_fu_triggers_total{config="r4",kind="tree",unit="cmp0"} 25`,
		`taco_fu_utilization{config="r4",kind="tree",unit="1"} 0.5`,
		`taco_socket_reads_total{config="r4",kind="tree",socket="cmp0.t"} 60`,
		`taco_socket_writes_total{config="r4",kind="tree",socket="cmp0.r"} 55`,
		`taco_drops_total{config="r4",kind="tree",reason="hop-limit-exceeded"} 3`,
		`taco_sched_stall_cycles_total{config="r4",kind="tree",cause="socket-hazard"} 12`,
		`taco_stall_cycles_total{config="r4",kind="tree",cause="queue-backpressure"} 4`,
		`taco_latency_cycles_count{config="r4",kind="tree"} 1000`,
	} {
		if !strings.Contains(doc, want+"\n") {
			t.Errorf("full snapshot missing %q in:\n%s", want, doc)
		}
	}
	// Zero sockets stay out of the heatmap families.
	if strings.Contains(doc, `socket="s0"`) {
		t.Errorf("zero-valued socket exposed")
	}
}

func TestWritePromDeterministic(t *testing.T) {
	var h LatencyHist
	h.Record(100)
	h.Record(900)
	s := MetricSnapshot{
		Labels:  map[string]string{"b": "2", "a": "1", "c": "3"},
		Cycles:  7,
		Latency: &h,
	}
	first := renderProm(t, s)
	for i := 0; i < 10; i++ {
		if got := renderProm(t, s); got != first {
			t.Fatalf("exposition differs across renders (map-order leak)")
		}
	}
	if !strings.Contains(first, `{a="1",b="2",c="3"}`) {
		t.Fatalf("labels not sorted: %s", first)
	}
}

func TestWritePromLabelEscaping(t *testing.T) {
	doc := renderProm(t, MetricSnapshot{
		Labels: map[string]string{"path": `a\b`, "note": "say \"hi\"\nbye"},
	})
	for _, want := range []string{`path="a\\b"`, `note="say \"hi\"\nbye"`} {
		if !strings.Contains(doc, want) {
			t.Errorf("escaping missing %q in:\n%s", want, doc)
		}
	}
	if strings.Contains(doc, "hi\"\nbye") {
		t.Errorf("raw newline leaked into a label value")
	}
}

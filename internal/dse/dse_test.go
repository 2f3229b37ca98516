package dse

import (
	"bytes"
	"context"
	"encoding/csv"
	"strconv"
	"testing"

	"taco/internal/core"
	"taco/internal/fu"
	"taco/internal/rtable"
)

func testSim() core.SimOptions {
	return core.SimOptions{Packets: 16, Seed: 7, MissRatio: 0.05, Ifaces: 4}
}

func TestSweepTableSizeScaling(t *testing.T) {
	cons := core.PaperConstraints()
	sizes := []int{10, 50, 200}

	seq, err := Sweep(context.Background(), TableSizeInstances(fu.Config1Bus1FU(rtable.Sequential), sizes, cons, testSim()), 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Sweep(context.Background(), TableSizeInstances(fu.Config1Bus1FU(rtable.BalancedTree), sizes, cons, testSim()), 0)
	if err != nil {
		t.Fatal(err)
	}
	cam, err := Sweep(context.Background(), TableSizeInstances(fu.Config1Bus1FU(rtable.CAM), sizes, cons, testSim()), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential grows ~linearly: 20x the entries, ≥8x the cycles.
	if r := seq[2].Metrics.CyclesPerPacket / seq[0].Metrics.CyclesPerPacket; r < 8 {
		t.Errorf("sequential scaling only %.1fx from 10 to 200 entries", r)
	}
	// The tree grows far slower than linear.
	if r := tree[2].Metrics.CyclesPerPacket / tree[0].Metrics.CyclesPerPacket; r > 4 {
		t.Errorf("tree scaling %.1fx from 10 to 200 entries; expected logarithmic", r)
	}
	// CAM is flat.
	if r := cam[2].Metrics.CyclesPerPacket / cam[0].Metrics.CyclesPerPacket; r > 1.2 {
		t.Errorf("CAM scaling %.2fx; expected flat", r)
	}
}

func TestSweepBusesMonotone(t *testing.T) {
	pts, err := Sweep(context.Background(), BusInstances(rtable.BalancedTree, 4, core.PaperConstraints(), testSim()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Metrics.CyclesPerPacket > pts[i-1].Metrics.CyclesPerPacket*1.02 {
			t.Errorf("cycles increased from %d to %d buses: %.1f -> %.1f",
				i, i+1, pts[i-1].Metrics.CyclesPerPacket, pts[i].Metrics.CyclesPerPacket)
		}
	}
	// Diminishing returns: the 1→2 gain exceeds the 3→4 gain.
	g12 := pts[0].Metrics.CyclesPerPacket - pts[1].Metrics.CyclesPerPacket
	g34 := pts[2].Metrics.CyclesPerPacket - pts[3].Metrics.CyclesPerPacket
	if g34 > g12 {
		t.Errorf("no diminishing returns: 1→2 gains %.1f, 3→4 gains %.1f", g12, g34)
	}
}

func TestSweepPacketSize(t *testing.T) {
	cfg := fu.Config3Bus1FU(rtable.CAM)
	pts, err := Sweep(context.Background(), PacketSizeInstances(cfg, []int{64, 512, 1500}, core.PaperConstraints(), testSim()), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Smaller packets mean a higher packet rate and thus a higher
	// required clock (cycles/packet barely changes).
	if !(pts[0].Metrics.RequiredClockHz > pts[1].Metrics.RequiredClockHz &&
		pts[1].Metrics.RequiredClockHz > pts[2].Metrics.RequiredClockHz) {
		t.Errorf("required clock not decreasing with packet size: %v %v %v",
			pts[0].Metrics.RequiredClockHz, pts[1].Metrics.RequiredClockHz,
			pts[2].Metrics.RequiredClockHz)
	}
}

func TestSweepReplication(t *testing.T) {
	pts, err := Sweep(context.Background(), ReplicationInstances(rtable.Sequential, 3, core.PaperConstraints(), testSim()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[2].Metrics.CyclesPerPacket > pts[0].Metrics.CyclesPerPacket {
		t.Errorf("replication hurt the sequential scan: %.1f -> %.1f",
			pts[0].Metrics.CyclesPerPacket, pts[2].Metrics.CyclesPerPacket)
	}
	// Replication costs area at equal clocks.
	if pts[2].Metrics.Est.AreaMM2 <= pts[0].Metrics.Est.AreaMM2 {
		t.Error("replication did not cost area")
	}
}

func TestExploreFindsAcceptable(t *testing.T) {
	res, err := ExploreCtx(context.Background(), core.PaperConstraints(), testSim(), 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("exploration found nothing acceptable")
	}
	if !res.Best.Metrics.Acceptable() {
		t.Error("best candidate not acceptable")
	}
	if len(res.Ranked) != 3*3*3 {
		t.Errorf("ranked %d instances, want the whole 3x3x3 grid", len(res.Ranked))
	}
	// Ranking is sorted.
	for i := 1; i < len(res.Ranked); i++ {
		if res.Ranked[i].Score < res.Ranked[i-1].Score {
			t.Fatal("ranking unsorted")
		}
	}
	t.Logf("explored %d; best: %v/%s at %.0f MHz, %.2f W",
		len(res.Ranked), res.Best.Metrics.Kind, res.Best.Metrics.Config.Name,
		res.Best.Metrics.RequiredClockHz/1e6, res.Best.Metrics.Est.PowerW)
}

// The grid holds the paper's three instances of every kind, so its pick
// can be no worse than Table 1's own selection.
func TestExploreNoWorseThanSelectBest(t *testing.T) {
	cons := core.PaperConstraints()
	res, err := ExploreCtx(context.Background(), cons, testSim(), 4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Table1(context.Background(), cons, testSim(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := core.SelectBest(ms)
	if !ok || !res.OK {
		t.Fatalf("SelectBest ok=%v, Explore ok=%v", ok, res.OK)
	}
	if res.Best.Score > core.Score(sel) {
		t.Errorf("Explore picks %v/%s (score %.4f), worse than SelectBest's %v/%s (score %.4f)",
			res.Best.Metrics.Kind, res.Best.Metrics.Config.Name, res.Best.Score,
			sel.Kind, sel.Config.Name, core.Score(sel))
	}
}

func TestWriteCSV(t *testing.T) {
	pts, err := Sweep(context.Background(), BusInstances(rtable.CAM, 2, core.PaperConstraints(), testSim()), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 points
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0] != "x" || rows[1][1] != "cam" {
		t.Errorf("rows = %v", rows[:2])
	}
	// The latency percentile columns ride along on every export, and a
	// simulated run always records per-packet latencies, so p50..p99.9
	// must be present, nondecreasing and nonzero.
	cols := map[string]int{}
	for i, name := range rows[0] {
		cols[name] = i
	}
	for _, name := range []string{"latency_p50", "latency_p90", "latency_p99", "latency_p999"} {
		if _, ok := cols[name]; !ok {
			t.Fatalf("CSV header missing %q: %v", name, rows[0])
		}
	}
	for _, row := range rows[1:] {
		p50, _ := strconv.ParseInt(row[cols["latency_p50"]], 10, 64)
		p99, _ := strconv.ParseInt(row[cols["latency_p99"]], 10, 64)
		p999, _ := strconv.ParseInt(row[cols["latency_p999"]], 10, 64)
		if p50 <= 0 || p99 < p50 || p999 < p99 {
			t.Errorf("latency percentiles malformed in row %v: p50=%d p99=%d p99.9=%d",
				row[:3], p50, p99, p999)
		}
	}
}

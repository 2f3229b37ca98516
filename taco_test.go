package taco_test

import (
	"context"
	"strings"
	"testing"

	"taco"
)

// TestPublicAPIQuickstart walks the README's quickstart path through the
// façade: generate a workload, evaluate an instance, regenerate Table 1.
func TestPublicAPIQuickstart(t *testing.T) {
	cons := taco.PaperConstraints()
	sim := taco.SimOptions{Packets: 16, Seed: 1, MissRatio: 0.05, Ifaces: 4}

	m, err := taco.Evaluate(taco.Config3Bus1FU(taco.CAM), cons, sim)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Acceptable() {
		t.Error("CAM 3-bus unacceptable through the façade")
	}

	ms, err := taco.EvaluateAll(cons, sim)
	if err != nil {
		t.Fatal(err)
	}
	table := taco.FormatTable1(ms)
	if !strings.Contains(table, "CAM") || !strings.Contains(table, "NA") {
		t.Errorf("Table 1 rendering incomplete:\n%s", table)
	}
	if best, ok := taco.SelectBest(ms); !ok || best.Kind != taco.CAM {
		t.Errorf("SelectBest = %v, %v", best.Kind, ok)
	}
}

func TestPublicAPIRouter(t *testing.T) {
	routes := taco.GenerateRoutes(taco.PaperTableSpec())
	tbl := taco.NewTable(taco.BalancedTree)
	for _, r := range routes {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := taco.NewRouter(taco.Config3Bus1FU(taco.BalancedTree), tbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := taco.GenerateTraffic(routes, taco.PaperTrafficSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pkts {
		tr.Deliver(i%4, taco.Datagram{Data: p.Data, Seq: p.Seq})
	}
	if err := tr.Run(int64(len(pkts)), 10_000_000); err != nil {
		t.Fatal(err)
	}
	out := 0
	for i := 0; i < 4; i++ {
		out += len(tr.Outputs(i))
	}
	if out == 0 {
		t.Error("no datagrams forwarded through the façade router")
	}
}

func TestPublicAPIEstimation(t *testing.T) {
	tech := taco.Default180nm()
	e := taco.Physical(taco.Config3Bus3FU(taco.BalancedTree), 250e6, tech)
	if !e.Feasible || e.AreaMM2 <= 0 || e.PowerW <= 0 {
		t.Errorf("estimate = %+v", e)
	}
	if got := taco.FormatHz(250e6); got != "250 MHz" {
		t.Errorf("FormatHz = %q", got)
	}
}

func TestPublicAPIExplore(t *testing.T) {
	res, err := taco.ExploreCtx(context.Background(), taco.PaperConstraints(),
		taco.SimOptions{Packets: 8, Seed: 3, Ifaces: 4}, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Error("exploration found nothing through the façade")
	}
}

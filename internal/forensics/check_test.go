package forensics

import (
	"strings"
	"testing"

	"taco/internal/fu"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// cleanReplay builds a router bundle of the given kind over a run that
// completes well within its budget, with drops of several reasons, and
// replays it.
func cleanReplay(t *testing.T, kind string) (*Bundle, *ReplayResult) {
	t.Helper()
	const packets, entries, ifaces = 32, 48, 4
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: entries, Ifaces: ifaces, Seed: 11})
	spec := workload.PaperTrafficSpec(packets)
	spec.Seed, spec.MissRatio, spec.HopLimitOneRatio = 11, 0.2, 0.1
	pkts, err := workload.GenerateTraffic(routes, spec)
	if err != nil {
		t.Fatal(err)
	}
	b := NewRouterBundle(kind, "test/clean", fu.Config3Bus1FU(rtable.BalancedTree), ifaces,
		routes, router.RoundRobin(pkts, ifaces), packets, router.WatchdogBudget(packets, entries), true)
	res, err := Replay(b, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("clean run failed: %s", res.Err)
	}
	return b, res
}

// TestCheckReproductionRejectsAgreeingFates: a fate-divergence bundle
// captured from a run in which golden and TACO agree does not reproduce
// a divergence, however faithfully it records both sides.
func TestCheckReproductionRejectsAgreeingFates(t *testing.T) {
	b, res := cleanReplay(t, KindFateDivergence)
	b.WantFates, b.GotFates = Fates(res.Want), Fates(res.Outcomes)
	err := CheckReproduction(b, res)
	if err == nil || !strings.Contains(err.Error(), "replayed fates match the golden reference") {
		t.Fatalf("CheckReproduction = %v, want the agreeing fates rejected", err)
	}
}

// TestCheckReproductionDropAudit: a drop-audit bundle reproduces when
// its recorded counters are the replay's, and not when one cell differs.
func TestCheckReproductionDropAudit(t *testing.T) {
	b, res := cleanReplay(t, KindDropAudit)
	b.WantDrops, b.GotDrops = DropMaps(res.Outcomes), DropMaps(res.Outcomes)
	if len(b.GotDrops) != b.Ifaces {
		t.Fatalf("replay read %d cards' drop counters, want %d", len(b.GotDrops), b.Ifaces)
	}
	if err := CheckReproduction(b, res); err != nil {
		t.Fatalf("faithful drop-audit bundle rejected: %v", err)
	}
	b.GotDrops = DropMaps(res.Outcomes)
	b.GotDrops[2]["no-route"]++
	err := CheckReproduction(b, res)
	if err == nil || !strings.Contains(err.Error(), "drops mismatch on card 2") {
		t.Fatalf("CheckReproduction = %v, want card 2's drop counters rejected", err)
	}
}

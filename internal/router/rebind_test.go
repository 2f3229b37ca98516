package router

import (
	"fmt"
	"reflect"
	"testing"

	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/rtable"
	"taco/internal/tta"
	"taco/internal/workload"
)

// rebindView is everything a finished batch leaves observable on a
// router: machine statistics, every card's counters and drops, latency,
// the readable sockets, the recorder tail and the forwarded datagrams.
type rebindView struct {
	Stats       tta.Stats
	Cards       []linecard.Stats
	Unexplained int64
	Latency     LatencySummary
	Sockets     []tta.SocketSnapshot
	Tail        []obs.RecEvent
	Outputs     [][]linecard.Datagram
}

// rebindWorkload generates a table's routes from seed and traffic aimed
// at them, with misses and hop-limit expiries so the drop audit charges
// reasons to the cards.
func rebindWorkload(t *testing.T, seed uint64) ([]rtable.Route, []workload.Packet) {
	t.Helper()
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 40, Ifaces: nIfaces, Seed: seed})
	pkts, err := workload.GenerateTraffic(routes, workload.TrafficSpec{
		Packets: 48, SizeBytes: 128, MissRatio: 0.1, HopLimitOneRatio: 0.05, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return routes, pkts
}

// newRebindRouter builds a router the way the soak does: drop audit and
// flight recorder armed, optionally on the compiled step path.
func newRebindRouter(t *testing.T, cfg fu.Config, tbl rtable.Table, compiled bool) *TACO {
	t.Helper()
	tr, err := NewTACO(cfg, tbl, nIfaces)
	if err != nil {
		t.Fatal(err)
	}
	tr.EnableDropAudit()
	tr.ArmRecorder(0)
	if compiled {
		if err := tr.UseCompiled(); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// runBatch delivers pkts, runs them to completion and returns the view.
func runBatch(t *testing.T, tr *TACO, pkts []workload.Packet, entries int) rebindView {
	t.Helper()
	delivered := int64(0)
	for i, p := range pkts {
		if tr.Deliver(i%nIfaces, linecard.Datagram{Data: p.Data, Seq: p.Seq}) {
			delivered++
		}
	}
	if err := tr.Run(delivered, WatchdogBudget(len(pkts), entries)); err != nil {
		t.Fatal(err)
	}
	tr.FinalizeDropAudit()
	v := rebindView{
		Stats:       tr.Machine.Stats(),
		Cards:       tr.QueueStats(),
		Unexplained: tr.UnexplainedDrops(),
		Latency:     tr.Latency(),
		Sockets:     tr.Machine.SnapshotSockets(),
		Tail:        tr.Recorder().Tail(),
	}
	for i := 0; i <= nIfaces; i++ {
		v.Outputs = append(v.Outputs, tr.Bank.Card(i).DrainOutput())
	}
	return v
}

// TestRebindMatchesFreshRouter: a router that ran over table A and was
// rebound to table B must be indistinguishable from one built over B.
// B is filled with as many inserts as A, so both tables report the same
// Gen: a sequential or tree RTU that kept its lowered cache across the
// rebind would keep serving A's entries and route B's traffic wrongly.
// A also carries a default route, so every datagram B drops for want of
// a route is one A would forward: a drop audit still classifying against
// A would report it unexplained.
// A table of another kind must be refused without disturbing the router.
func TestRebindMatchesFreshRouter(t *testing.T) {
	routesA, pktsA := rebindWorkload(t, 11)
	routesB, pktsB := rebindWorkload(t, 12)
	routesA[0] = rtable.Route{Prefix: ipv6.MustParsePrefix("::/0"), Iface: 3, Metric: 1}
	for ki, kind := range rtable.PaperKinds {
		for _, compiled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/compiled=%v", kind, compiled), func(t *testing.T) {
				cfg := fu.Config3Bus1FU(kind)
				tblA := fillTable(t, kind, routesA)
				tblB := fillTable(t, kind, routesB)
				if ga, ok := tblA.(interface{ Gen() uint64 }); ok {
					if a, b := ga.Gen(), tblB.(interface{ Gen() uint64 }).Gen(); a != b {
						t.Fatalf("tables A and B must share a generation to catch a stale cache: %d vs %d", a, b)
					}
				}
				fresh := newRebindRouter(t, cfg, fillTable(t, kind, routesB), compiled)
				want := runBatch(t, fresh, pktsB, len(routesB))
				forwarded := 0
				for _, out := range want.Outputs[:nIfaces] {
					forwarded += len(out)
				}
				if forwarded == 0 {
					t.Fatal("table B forwards nothing; the comparison would be vacuous")
				}

				reused := newRebindRouter(t, cfg, tblA, compiled)
				if a := runBatch(t, reused, pktsA, len(routesA)); reflect.DeepEqual(a.Outputs, want.Outputs) {
					t.Fatal("tables A and B forward alike; the comparison would be vacuous")
				}
				if err := reused.Rebind(tblB); err != nil {
					t.Fatal(err)
				}
				if got := runBatch(t, reused, pktsB, len(routesB)); !reflect.DeepEqual(got, want) {
					t.Fatalf("rebound router differs from a fresh one:\n got %+v\nwant %+v", got, want)
				}

				other := rtable.PaperKinds[(ki+1)%len(rtable.PaperKinds)]
				if err := reused.Rebind(fillTable(t, other, routesB)); err == nil {
					t.Fatalf("rebinding a %v router to a %v table succeeded", kind, other)
				}
				reused.Reset()
				if got := runBatch(t, reused, pktsB, len(routesB)); !reflect.DeepEqual(got, want) {
					t.Fatalf("router changed by a refused rebind:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

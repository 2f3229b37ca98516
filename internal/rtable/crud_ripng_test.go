package rtable_test

import (
	"slices"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/ripng"
	"taco/internal/rtable"
)

// crudIfaces is the RIPng router's interface count; a script route's
// Iface picks the neighbour (Iface mod crudIfaces) that announces it.
const crudIfaces = 4

func crudNeighbour(iface int) ipv6.Addr {
	return ipv6.Addr{Hi: 0xfe80 << 48, Lo: uint64(0x100 + iface)}
}

// TestCRUDThroughRIPng runs the CRUD scripts through a RIPng engine on
// every backend: an add is a neighbour's metric-1 response, a delete the
// same neighbour's metric-16 poison. Each step then ticks twice — the
// triggered update goes out, then a poisoned route is garbage-collected
// — so a re-add is learned afresh and must reach the FIB again. The
// oracle follows RIPng's rule that an equal metric through another
// gateway does not displace the current route (nor does its poison).
func TestCRUDThroughRIPng(t *testing.T) {
	for _, c := range crudCases(t) {
		for _, b := range crudBackends() {
			t.Run(c.name+"/"+b.name, func(t *testing.T) { runCRUDThroughRIPng(t, b.new(), c.steps) })
		}
	}
}

func runCRUDThroughRIPng(t *testing.T, tbl rtable.Table, steps []crudStep) {
	ifaces := make([]ripng.Iface, crudIfaces)
	for f := range ifaces {
		ifaces[f] = ripng.Iface{LinkLocal: ipv6.Addr{Hi: 0xfe80 << 48, Lo: uint64(f + 1)}, Cost: 1}
	}
	now := ripng.Clock(1)
	e := ripng.NewEngine(tbl, ifaces, now)
	e.SetTimers(1<<30, 1<<30, 1) // no periodic update or timeout; GC after one tick
	var want lpmOracle
	for i, s := range steps {
		p, f := s.route.Prefix, s.route.Iface%crudIfaces
		learned := rtable.Route{Prefix: p, NextHop: crudNeighbour(f), Iface: f, Metric: 2}
		cur := slices.IndexFunc(want, func(r rtable.Route) bool { return r.Prefix == p })
		rte := ripng.RTE{Prefix: p, Metric: 1}
		changed := cur < 0
		if s.del {
			rte.Metric = ripng.Infinity
			changed = cur >= 0 && want[cur].Iface == f
		}
		if err := e.Receive(f, crudNeighbour(f), ripng.Packet{Command: ripng.CommandResponse, RTEs: []ripng.RTE{rte}}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		switch {
		case changed && s.del:
			want.delete(p)
		case changed:
			want.insert(learned)
		}
		e.Tick(now + 1)
		e.Tick(now + 2)
		now += 2
		checkTriggered(t, i, e.Collect(), p, f, changed, s.del)

		if k := slices.IndexFunc(want, func(r rtable.Route) bool { return r.Prefix == p }); k >= 0 {
			if !slices.Contains(tbl.Routes(), want[k]) {
				t.Fatalf("step %d: FIB does not hold %v", i, want[k])
			}
		} else if slices.ContainsFunc(tbl.Routes(), func(r rtable.Route) bool { return r.Prefix == p }) {
			t.Fatalf("step %d: FIB still contains %v", i, p)
		}
		if tbl.Len() != len(want) || e.RouteCount() != len(want) {
			t.Fatalf("step %d: FIB %d routes, engine %d, oracle %d", i, tbl.Len(), e.RouteCount(), len(want))
		}
		checkLookups(t, tbl, want, i, s.route)
		if i%64 == 63 || i == len(steps)-1 {
			checkLookups(t, tbl, want, i, want...)
		}
	}
}

// checkTriggered checks the update a step sent: nothing when the FIB did
// not change, else p on every interface — at metric 16 after a delete,
// and after an add at 2, but poisoned back toward its gateway f.
func checkTriggered(t *testing.T, step int, out []ripng.OutPacket, p bits.Prefix, f int, changed, del bool) {
	t.Helper()
	if !changed {
		if len(out) != 0 {
			t.Fatalf("step %d: %d packets sent for no change", step, len(out))
		}
		return
	}
	if len(out) != crudIfaces {
		t.Fatalf("step %d: %d packets, want one per interface", step, len(out))
	}
	for iface, op := range out {
		want := ripng.RTE{Prefix: p, Metric: 2}
		if del || iface == f {
			want.Metric = ripng.Infinity
		}
		if op.Iface != iface || len(op.Pkt.RTEs) != 1 || op.Pkt.RTEs[0] != want {
			t.Fatalf("step %d: interface %d sent %+v, want %+v out of %d", step, op.Iface, op.Pkt.RTEs, want, iface)
		}
	}
}

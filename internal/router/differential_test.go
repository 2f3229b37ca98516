package router

import (
	"slices"
	"testing"

	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/linecard"
	"taco/internal/rtable"
)

// TestCompareCatchesPlantedDivergence runs a real TACO for each paper
// table kind on both step paths, requires Compare to find it in full
// agreement with the golden router, then plants one divergence at a time
// on the collected outcomes. Each must be reported for exactly the
// planted datagram or card — including a local delivery turned into a
// drop, which a per-interface byte comparison cannot see.
func TestCompareCatchesPlantedDivergence(t *testing.T) {
	routes, pkts := buildWorkload(t, 40)
	arrivals := RoundRobin(pkts, nIfaces)
	for _, kind := range rtable.PaperKinds {
		g := NewGolden(fillTable(t, kind, routes), nIfaces)
		g.AddLocal(routerAddr)
		want := g.Expected(arrivals)
		for _, compiled := range []bool{false, true} {
			tr, err := NewTACO(fu.Config3Bus1FU(kind), fillTable(t, kind, routes), nIfaces)
			if err != nil {
				t.Fatal(err)
			}
			tr.AddLocal(routerAddr)
			tr.EnableDropAudit()
			if compiled {
				if err := tr.UseCompiled(); err != nil {
					t.Fatal(err)
				}
			}
			run, err := tr.RunChecked(arrivals, want, 20_000_000, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := run.Outcomes
			name := kind.String()
			if compiled {
				name += "/compiled"
			}
			if !run.Agree() {
				t.Fatalf("%s: unplanted run disagrees: %+v", name, run.Diff)
			}

			first := func(a Action) int {
				i := slices.IndexFunc(got.Datagrams, func(o Outcome) bool { return o.Action == a })
				if i < 0 {
					t.Fatalf("%s: workload has no %v outcome", name, a)
				}
				return i
			}
			fwd, local := first(Forward), first(Local)
			card := arrivals[first(Drop)].Iface
			for _, p := range []struct {
				what  string
				plant func(o *Outcomes)
				seq   int64 // -1: a card divergence
				card  int
			}{
				{"forwarded byte flipped", func(o *Outcomes) {
					o.Datagrams[fwd].Data = slices.Clone(o.Datagrams[fwd].Data)
					o.Datagrams[fwd].Data[len(o.Datagrams[fwd].Data)-1] ^= 1
				}, arrivals[fwd].Seq, -1},
				{"output moved to another interface", func(o *Outcomes) {
					o.Datagrams[fwd].Iface = (o.Datagrams[fwd].Iface + 1) % nIfaces
				}, arrivals[fwd].Seq, -1},
				{"local delivery dropped", func(o *Outcomes) {
					o.Datagrams[local] = Outcome{Seq: arrivals[local].Seq, Action: Drop, Iface: -1}
				}, arrivals[local].Seq, -1},
				{"drop counter cell changed", func(o *Outcomes) {
					o.Drops[card].Add(ipv6.DropNoRoute)
				}, -1, card},
			} {
				planted := Outcomes{
					Datagrams: slices.Clone(got.Datagrams),
					Drops:     slices.Clone(got.Drops),
				}
				p.plant(&planted)
				d := Compare(want, planted)
				wantDiff := Diff{Seqs: []int64{p.seq}}
				if p.seq < 0 {
					wantDiff = Diff{Cards: []int{p.card}}
				}
				if !slices.Equal(d.Seqs, wantDiff.Seqs) || !slices.Equal(d.Cards, wantDiff.Cards) {
					t.Errorf("%s: %s: Compare reported %+v, want %+v", name, p.what, d, wantDiff)
				}
			}
		}
	}
}

// TestCompareCatchesRepeatedOutput: a datagram the machine emitted twice
// diverges even when both copies are right.
func TestCompareCatchesRepeatedOutput(t *testing.T) {
	routes, pkts := buildWorkload(t, 8)
	arrivals := RoundRobin(pkts, nIfaces)
	g := NewGolden(fillTable(t, rtable.BalancedTree, routes), nIfaces)
	g.AddLocal(routerAddr)
	want := g.Expected(arrivals)
	tr, err := NewTACO(fu.Config3Bus1FU(rtable.BalancedTree), fillTable(t, rtable.BalancedTree, routes), nIfaces)
	if err != nil {
		t.Fatal(err)
	}
	tr.AddLocal(routerAddr)
	if _, err := tr.RunChecked(arrivals, want, 20_000_000, nil); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(want.Datagrams, func(o Outcome) bool { return o.Action == Forward })
	o := want.Datagrams[i]
	tr.Bank.Card(o.Iface).PushOut(linecard.Datagram{Data: o.Data, Seq: o.Seq})
	got := tr.Collect(arrivals)
	if got.Drops != nil {
		t.Errorf("Collect without the drop audit read card counters: %v", got.Drops)
	}
	if d := Compare(want, got); !slices.Equal(d.Seqs, []int64{o.Seq}) || len(d.Cards) != 0 {
		t.Errorf("Compare reported %+v, want seq %d only", d, o.Seq)
	}
}

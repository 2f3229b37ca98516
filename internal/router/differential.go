package router

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"taco/internal/ipv6"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/rtable"
	"taco/internal/tta"
	"taco/internal/workload"
)

// Arrival is one datagram offered to a router: the network card it
// arrives on, its workload sequence number, and its exact bytes. The
// JSON tags are a forensic bundle's datagram encoding.
type Arrival struct {
	Iface int    `json:"iface"`
	Seq   int64  `json:"seq"`
	Data  []byte `json:"data"`
}

// RoundRobin spreads pkts over ifaces network cards in order: packet i
// arrives on card i mod ifaces.
func RoundRobin(pkts []workload.Packet, ifaces int) []Arrival {
	as := make([]Arrival, len(pkts))
	for i, p := range pkts {
		as[i] = Arrival{Iface: i % ifaces, Seq: p.Seq, Data: p.Data}
	}
	return as
}

// Outcome is what a router did with one datagram.
type Outcome struct {
	Seq    int64
	Action Action
	Iface  int             // output interface; -1 unless forwarded
	Data   []byte          // the bytes that left; nil when dropped
	Reason ipv6.DropReason // why it was dropped (golden side only)
}

func (o Outcome) String() string {
	switch o.Action {
	case Forward:
		if len(o.Data) >= ipv6.HeaderBytes {
			return fmt.Sprintf("forward iface %d (%d bytes, hop limit %d)", o.Iface, len(o.Data), o.Data[7])
		}
		return fmt.Sprintf("forward iface %d (%d bytes)", o.Iface, len(o.Data))
	case Local:
		return fmt.Sprintf("local (%d bytes)", len(o.Data))
	}
	if o.Reason != ipv6.DropNone {
		return "drop (" + o.Reason.String() + ")"
	}
	return "drop"
}

// Outcomes is a router's account of a batch of arrivals: one Outcome
// per arrival, in arrival order, and each network card's drop counters
// by reason.
type Outcomes struct {
	Datagrams []Outcome
	// Drops is nil for a TACO run without the drop audit, which cannot
	// name the reason of a drop the machine performed.
	Drops []obs.DropCounters

	// repeated holds the arrival positions the TACO emitted more than
	// once; each is a divergence whatever its recorded outcome.
	repeated []int
}

// Expect is the outcome the decision dec about the arrival (seq, in)
// requires: forwarded out dec.OutIface with the hop limit decremented,
// delivered locally unchanged, or dropped for dec.Reason.
func Expect(seq int64, dec Decision, in []byte) Outcome {
	o := Outcome{Seq: seq, Action: dec.Action, Iface: -1}
	switch dec.Action {
	case Forward:
		o.Iface = dec.OutIface
		o.Data = append([]byte(nil), in...)
		ipv6.DecrementHopLimit(o.Data)
	case Local:
		o.Data = in
	case Drop:
		o.Reason = dec.Reason
	}
	return o
}

// Expected processes arrivals in order and returns what any router over
// the same table must do with them, each drop counted on its arrival
// card.
func (g *Golden) Expected(arrivals []Arrival) Outcomes {
	o := Outcomes{
		Datagrams: make([]Outcome, len(arrivals)),
		Drops:     make([]obs.DropCounters, g.ifaces),
	}
	for i, a := range arrivals {
		o.Datagrams[i] = Expect(a.Seq, g.decide(a.Data), a.Data)
		o.Drops[a.Iface].Add(o.Datagrams[i].Reason)
	}
	return o
}

// ReferenceOutcomes is what any router over routes must do with
// arrivals: the golden router's Expected over the routes held in the
// sequential reference scan (rtable.Sequential). Every checked run takes
// its want side from this one table, so a bug in the backend under test
// shows as a divergence instead of being shared by both sides.
func ReferenceOutcomes(routes []rtable.Route, ifaces int, arrivals []Arrival) (Outcomes, error) {
	tbl := rtable.New(rtable.Sequential)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		return Outcomes{}, fmt.Errorf("router: reference table: %w", err)
	}
	return NewGolden(tbl, ifaces).Expected(arrivals), nil
}

// Checked is what RunChecked observed of one batch.
type Checked struct {
	Delivered   int64    // arrivals the line cards accepted
	Want        Outcomes // the reference the run was checked against
	Outcomes    Outcomes // what the machine did; empty unless the run completed
	Diff        Diff     // where Outcomes disagrees with Want
	Unexplained int64    // machine drops the drop audit could not name
	Paused      bool     // onCycle stopped the run before it was done
}

// Agree reports a run that did what Want requires and left no machine
// drop unexplained.
func (c Checked) Agree() bool { return c.Diff.Agree() && c.Unexplained == 0 }

// RunChecked is the one checked run: it offers every arrival to its
// card, runs the machine until every accepted one is processed
// (RunStepped: a nil onCycle is the batch run), reads what the machine
// did (Collect) and compares it with want (Compare). A run that fails or
// pauses is neither collected nor compared; its error — a *StallError
// when the watchdog fired — is returned beside what was observed.
func (t *TACO) RunChecked(arrivals []Arrival, want Outcomes, budget int64, onCycle tta.CycleFunc) (Checked, error) {
	c := Checked{Want: want}
	for _, a := range arrivals {
		if t.Deliver(a.Iface, linecard.Datagram{Data: a.Data, Seq: a.Seq}) {
			c.Delivered++
		}
	}
	var err error
	c.Paused, err = t.RunStepped(c.Delivered, budget, onCycle)
	if c.Paused || err != nil {
		return c, err
	}
	c.Outcomes = t.Collect(arrivals)
	c.Diff = Compare(want, c.Outcomes)
	c.Unexplained = t.UnexplainedDrops()
	return c, nil
}

// Collect reads what the machine did with arrivals, after a run: an
// arrival that surfaced on network card i was forwarded out i, one in
// the host queue was delivered locally, and any other — rejected by its
// card or discarded by the program — was dropped. Outputs are matched
// to arrivals by Seq, which must increase along arrivals, and stay
// queued. With the drop audit enabled, Collect finalizes it and reads
// every network card's counters.
func (t *TACO) Collect(arrivals []Arrival) Outcomes {
	t.FinalizeDropAudit()
	o := t.match(arrivals)
	if t.audit != nil {
		o.Drops = make([]obs.DropCounters, t.ifaces)
		for i := range o.Drops {
			o.Drops[i] = t.Bank.Card(i).Stats().Drops
		}
	}
	return o
}

// match pairs the queued outputs with arrivals by Seq, without draining
// them. Arrivals come in increasing Seq order, as workload traffic is
// numbered, so the pairing is a binary search.
func (t *TACO) match(arrivals []Arrival) Outcomes {
	o := Outcomes{Datagrams: make([]Outcome, len(arrivals))}
	for i, a := range arrivals {
		o.Datagrams[i] = Outcome{Seq: a.Seq, Action: Drop, Iface: -1}
	}
	for card := 0; card <= t.ifaces; card++ {
		action, iface := Forward, card
		if card == t.ifaces {
			action, iface = Local, -1
		}
		t.Bank.Card(card).ForEachOutput(func(d linecard.Datagram) {
			i, ok := slices.BinarySearchFunc(arrivals, d.Seq, func(a Arrival, seq int64) int { return cmp.Compare(a.Seq, seq) })
			if !ok {
				return
			}
			if o.Datagrams[i].Action != Drop {
				o.repeated = append(o.repeated, i)
			}
			o.Datagrams[i] = Outcome{Seq: d.Seq, Action: action, Iface: iface, Data: d.Data}
		})
	}
	return o
}

// Diff is where two Outcomes disagree.
type Diff struct {
	Seqs  []int64 // datagrams whose outcomes differ, in arrival order
	Cards []int   // network cards whose drop counters differ
}

// Agree reports whether nothing differs.
func (d Diff) Agree() bool { return len(d.Seqs) == 0 && len(d.Cards) == 0 }

// String names what differs: how many datagrams, the first few of their
// seqs, and the cards whose drop counters differ.
func (d Diff) String() string {
	return fmt.Sprintf("TACO diverges on %d datagrams (first seqs %v) and the drop counters of cards %v",
		len(d.Seqs), d.Seqs[:min(len(d.Seqs), 8)], d.Cards)
}

// Compare is the one definition of "golden and TACO agree". Per
// datagram: the same action, the same output interface, byte-identical
// output, and emitted once. Per network card: the same count for every
// drop reason, when both sides name their drops. The drop reason of a
// single datagram is compared only through its card's counters.
func Compare(want, got Outcomes) Diff {
	var d Diff
	for i, w := range want.Datagrams {
		if i >= len(got.Datagrams) || !same(w, got.Datagrams[i]) || slices.Contains(got.repeated, i) {
			d.Seqs = append(d.Seqs, w.Seq)
		}
	}
	if want.Drops != nil && got.Drops != nil {
		for i, w := range want.Drops {
			if i >= len(got.Drops) || w != got.Drops[i] {
				d.Cards = append(d.Cards, i)
			}
		}
	}
	return d
}

func same(a, b Outcome) bool {
	return a.Seq == b.Seq && a.Action == b.Action && a.Iface == b.Iface && bytes.Equal(a.Data, b.Data)
}

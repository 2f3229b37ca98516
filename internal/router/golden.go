// Package router assembles the paper's Figure 1 system: line cards
// around a forwarding engine. Two engines are provided with identical
// semantics — a golden pure-Go router (the reference model) and the
// TACO router, which executes the generated forwarding program on the
// cycle-accurate TTA machine. The differential tests in this package
// drive both with the same workload and require identical outputs.
package router

import (
	"fmt"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/obs"
	"taco/internal/rtable"
)

// Action classifies what the router did with a datagram.
type Action int

const (
	// Forward means the datagram was sent out an interface.
	Forward Action = iota
	// Local means the datagram was delivered to the router itself
	// (multicast, or one of the router's own addresses).
	Local
	// Drop means the datagram was discarded (validation failure, hop
	// limit exhausted, or no matching route).
	Drop
)

func (a Action) String() string {
	switch a {
	case Forward:
		return "forward"
	case Local:
		return "local"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Decision is the outcome of processing one datagram.
type Decision struct {
	Action   Action
	OutIface int             // valid when Action == Forward
	Reason   ipv6.DropReason // valid when Action == Drop
}

// Stats counts datagram outcomes.
type Stats struct {
	Received, Forwarded, LocalDelivered, Dropped int64

	// Drops breaks Dropped down by ipv6.DropReason — the same taxonomy
	// the line cards and the TACO drop audit count in, so golden and
	// TACO drop accounting are directly comparable.
	Drops obs.DropCounters
}

// Golden is the reference software router. Its decision order matches
// the TACO forwarding program exactly (see internal/program):
// version check, hop-limit check, multicast/local check, longest-prefix
// lookup, hop-limit rewrite.
type Golden struct {
	table   rtable.Table
	local   map[bits.Word128]bool
	isLocal func(ipv6.Addr) bool
	ifaces  int
	stats   Stats
}

// NewGolden returns a golden router forwarding over table with the given
// interface count.
func NewGolden(table rtable.Table, ifaces int) *Golden {
	g := &Golden{table: table, local: make(map[bits.Word128]bool), ifaces: ifaces}
	g.isLocal = func(a ipv6.Addr) bool { return g.local[a] }
	return g
}

// AddLocal registers an address as the router's own (unicast addresses
// and joined multicast groups are both delivered locally).
func (g *Golden) AddLocal(addr ipv6.Addr) { g.local[addr] = true }

// Table returns the forwarding table.
func (g *Golden) Table() rtable.Table { return g.table }

// Ifaces returns the interface count.
func (g *Golden) Ifaces() int { return g.ifaces }

// Process decides a datagram's fate and returns the (possibly rewritten)
// datagram to transmit. The returned slice aliases d when no rewrite was
// needed, and is a fresh copy when the header was rewritten.
func (g *Golden) Process(d []byte) (Decision, []byte) {
	dec := g.decide(d)
	return dec, Expect(0, dec, d).Data
}

// decide classifies d and counts the decision.
func (g *Golden) decide(d []byte) Decision {
	g.stats.Received++
	dec := Classify(g.table, g.isLocal, d)
	switch dec.Action {
	case Drop:
		g.stats.Dropped++
		g.stats.Drops.Add(dec.Reason)
	case Local:
		g.stats.LocalDelivered++
	case Forward:
		g.stats.Forwarded++
	}
	return dec
}

// Stats returns the outcome counters.
func (g *Golden) Stats() Stats { return g.stats }

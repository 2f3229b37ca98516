// Package net scales the repository from one router to a network of
// them: a deterministic multi-router simulation that instantiates
// hundreds of router nodes — golden, TACO-interpreted or TACO-compiled,
// mixed per node — over generated topologies (line, ring, ISP-like
// scale-free, k-ary fat-tree), connects every edge through a pair of
// fault.Link wires (flaps, loss, corruption), and advances the whole
// mesh on a seeded discrete-event clock.
//
// Each node runs a real RIPng engine (internal/ripng) over its own
// forwarding table; control packets cross edges as full UDP/IPv6 frames
// in pooled buffers that live one tick, so link corruption is caught by
// the UDP checksum and audited, exactly as on the wire. Probe datagrams
// injected at stub nodes traverse the mesh one hop per tick through
// each node's data plane — router.Classify for golden nodes, the
// cycle-accurate TACO pipeline for TACO nodes, with every TACO hop
// differentially checked against the golden decision.
//
// On top of the mesh, campaign.go runs seeded chaos campaigns — link
// flaps, partitions and heals, node crashes and restarts, poison
// storms — under continuous invariant checkers: FIBs must converge to
// the whole-network BFS oracle within a bounded time after quiescence,
// count-to-infinity stays bounded by split horizon, no persistent
// forwarding loops (probes must deliver or die for an audited drop
// reason), and all drop accounting stays conserved. A TACO node that
// stalls its watchdog is quarantined — its probe hops fall back to the
// golden decision path and a forensics.Bundle is serialized — and the
// campaign keeps running.
//
// Everything is deterministic for any worker count: per-entity seeded
// RNGs, node-ordered merges, and sorted report emission make the same
// seed produce byte-identical text/CSV/JSON reports at -workers 1 and
// -workers 8.
package net

import (
	"fmt"

	"taco/internal/ripng"
	"taco/internal/rtable"
)

// NodeKind selects a node's data-plane implementation. The control
// plane (RIPng) is identical across kinds; the kind decides how probe
// datagrams are forwarded.
type NodeKind int

const (
	// NodeGolden forwards probes with the pure-Go reference classifier.
	NodeGolden NodeKind = iota
	// NodeTACO forwards probes through the cycle-accurate TACO pipeline
	// (interpreter), differentially checked against the golden decision.
	NodeTACO
	// NodeTACOCompiled is NodeTACO on the compiled fast path.
	NodeTACOCompiled
)

func (k NodeKind) String() string {
	switch k {
	case NodeGolden:
		return "golden"
	case NodeTACO:
		return "taco"
	case NodeTACOCompiled:
		return "compiled"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// MixKinds lists the node-mix specs accepted by Options.Mix, sorted.
var MixKinds = []string{"compiled", "golden", "mixed", "taco"}

// mixKind maps a node id to its kind under a mix spec. "mixed" places a
// TACO-interpreted node at id ≡ 1 and a compiled node at id ≡ 5 (mod 8),
// golden elsewhere — a fixed, documented pattern so runs are comparable.
func mixKind(mix string, id int) (NodeKind, error) {
	switch mix {
	case "", "golden":
		return NodeGolden, nil
	case "taco":
		return NodeTACO, nil
	case "compiled":
		return NodeTACOCompiled, nil
	case "mixed":
		switch id % 8 {
		case 1:
			return NodeTACO, nil
		case 5:
			return NodeTACOCompiled, nil
		}
		return NodeGolden, nil
	}
	return 0, fmt.Errorf("net: unknown node mix %q (valid: %v)", mix, MixKinds)
}

// Default timer scale: the RFC 2080 ratios (update 30s, timeout 6×,
// GC 4×) compressed so campaigns finish in hundreds of ticks instead of
// simulated hours.
const (
	DefaultUpdateTicks  ripng.Clock = 6
	DefaultTimeoutTicks ripng.Clock = 36
	DefaultGCTicks      ripng.Clock = 24
)

// Options configures a mesh. Every TACO node runs the paper's
// 3BUS/1FU instance over Table, and every RIPng engine the
// Default*Ticks timers.
type Options struct {
	// Table selects every node's forwarding-table backend.
	Table rtable.Kind
	// Mix is the node-kind spec: golden | taco | compiled | mixed.
	Mix string
	// Seed derives every per-entity RNG (links, probes).
	Seed uint64
	// Workers bounds the per-tick node-processing parallelism; <= 0
	// means 1. Any value produces identical results.
	Workers int
	// MaxCyclesPerProbe is the TACO watchdog budget for one probe hop;
	// 0 scales a generous default to the table size.
	MaxCyclesPerProbe int64
	// ForensicsDir, when non-empty, arms TACO nodes' flight recorders
	// and serializes a forensics.Bundle for every stall, differential
	// divergence, and probe-witnessed invariant violation.
	ForensicsDir string
	// WatchMetrics samples every node's FIB each tick to audit metric
	// climbs (the count-to-infinity bound). Costs O(nodes·routes) per
	// tick; intended for hand-built topologies and small campaigns.
	WatchMetrics bool
}

func (o *Options) defaults() {
	if o.Mix == "" {
		o.Mix = "golden"
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
}

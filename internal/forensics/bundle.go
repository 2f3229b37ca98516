// Package forensics turns failures into artifacts. A Bundle is a
// versioned, self-contained JSON record of everything needed to
// deterministically re-execute a failed run — the architecture config,
// the exact routing table, the exact (possibly fault-mutated) datagrams
// in delivery order, the cycle budget — together with the evidence
// captured at the moment of failure: the flight-recorder tail, the
// stall-cause taxonomy entry, the terminal machine snapshot, and (for
// differential failures) the diverging golden-vs-TACO fates.
//
// Bundles are written automatically by the failure-owning layers
// (internal/fault soaks, internal/core evaluation, internal/dse sweeps,
// the CLIs' -forensics-out flags) and consumed by cmd/tacoreplay, which
// replays them cycle-deterministically on either step path.
package forensics

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/tta"
)

// Version is the bundle schema version. Loaders reject bundles from a
// newer schema; additive changes within a version are tolerated by
// encoding/json's unknown-field behavior.
const Version = 1

// Bundle kinds: what failure the bundle captures.
const (
	// KindStall: a router.StallError — the watchdog fired.
	KindStall = "stall"
	// KindFateDivergence: golden and TACO disagreed on at least one
	// datagram's fate (forward iface / local / drop).
	KindFateDivergence = "fate-divergence"
	// KindDropAudit: per-card per-reason drop counters diverged, or the
	// audit could not attribute machine-level drops.
	KindDropAudit = "drop-audit"
	// KindCompiledDivergence: the compiled fast path and the interpreter
	// disagreed (the dse replay oracle's checksum miss).
	KindCompiledDivergence = "compiled-divergence"
	// KindMachineStall: a bare compute-machine run (tacosim) exceeded
	// its cycle budget or faulted; replayed from assembly source.
	KindMachineStall = "machine-stall"
	// KindNetInvariant: a network-level invariant violation witnessed by
	// a probe datagram in an internal/net campaign — the capturing node's
	// exact FIB and the dying datagram, with GotFates the fate the node
	// produced and WantFates what the whole-network oracle required.
	KindNetInvariant = "net-invariant"
)

// Datagram is one delivered datagram in delivery order. Data is the
// exact bytes handed to the line card — after any fault mutation — so
// a replay needs no workload generator and no fault injector.
type Datagram = router.Arrival

// Fate is a bundle's view of a router.Outcome: forward (with output
// interface), local, or drop. The output bytes are not recorded; a
// replay recomputes them on both sides.
type Fate struct {
	Seq    int64  `json:"seq"`
	Action string `json:"action"`
	Iface  int    `json:"iface"` // output interface; -1 unless forwarded
}

// Fates is the bundle view of o's datagrams.
func Fates(o router.Outcomes) []Fate {
	fs := make([]Fate, len(o.Datagrams))
	for i, d := range o.Datagrams {
		fs[i] = Fate{Seq: d.Seq, Action: d.Action.String(), Iface: d.Iface}
	}
	return fs
}

// DropMaps is the bundle view of o's per-card drop counters.
func DropMaps(o router.Outcomes) []map[string]int64 {
	ms := make([]map[string]int64, len(o.Drops))
	for i, d := range o.Drops {
		ms[i] = d.Map()
	}
	return ms
}

// Bundle is the versioned forensic record. Replay-input fields fully
// determine the re-execution; evidence fields pin what the original
// run observed, so a replay can assert it reproduced the same failure.
type Bundle struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// Label identifies the failing instance ("balanced-tree/3BUS-1FU",
	// "campaign 3") for humans and file names.
	Label string `json:"label,omitempty"`
	// Note is free-form context from the capturing layer.
	Note string `json:"note,omitempty"`

	// Replay inputs (router kinds): architecture, table, traffic.
	Config      *fu.Config     `json:"config,omitempty"`
	Ifaces      int            `json:"ifaces,omitempty"`
	Routes      []rtable.Route `json:"routes,omitempty"`
	Datagrams   []Datagram     `json:"datagrams,omitempty"`
	Expected    int64          `json:"expected,omitempty"`
	Budget      int64          `json:"budget,omitempty"`
	Compiled    bool           `json:"compiled,omitempty"`
	RecorderCap int            `json:"recorder_cap,omitempty"`
	// Seed and FaultSpec record provenance (which campaign, which
	// mutator mix); the replay itself never re-derives from them — the
	// mutated bytes are in Datagrams.
	Seed      uint64 `json:"seed,omitempty"`
	FaultSpec string `json:"fault_spec,omitempty"`

	// Replay inputs (KindMachineStall): a compute program re-assembled
	// against Config's machine.
	Asm string `json:"asm,omitempty"`

	// Evidence: terminal state at capture.
	Err         string               `json:"err,omitempty"`
	StallCause  string               `json:"stall_cause,omitempty"`
	StallCycle  int64                `json:"stall_cycle,omitempty"`
	PC          int                  `json:"pc,omitempty"`
	Popped      int64                `json:"popped,omitempty"`
	QueueLen    int                  `json:"queue_len,omitempty"`
	Cards       []linecard.Stats     `json:"cards,omitempty"`
	Sockets     []tta.SocketSnapshot `json:"sockets,omitempty"`
	SocketNames []string             `json:"socket_names,omitempty"`
	Tail        []obs.RecEvent       `json:"tail,omitempty"`
	TailDropped uint64               `json:"tail_dropped,omitempty"`

	// Evidence: differential divergence (fate / drop-audit kinds).
	// WantFates is the golden reference, GotFates what TACO produced;
	// WantDrops/GotDrops are the per-network-card drop counters keyed
	// by reason name. Unexplained counts unattributable machine drops.
	WantFates   []Fate             `json:"want_fates,omitempty"`
	GotFates    []Fate             `json:"got_fates,omitempty"`
	WantDrops   []map[string]int64 `json:"want_drops,omitempty"`
	GotDrops    []map[string]int64 `json:"got_drops,omitempty"`
	Unexplained int64              `json:"unexplained,omitempty"`
}

// NewRouterBundle assembles the replay-input half of a router-kind
// bundle. The datagram list must be in delivery order with the exact
// delivered bytes; expected is the count Run was asked to process
// (datagrams the line cards accepted). The recorder capacity is the
// default every capturing router arms (router.TACO.ArmRecorder(0)).
func NewRouterBundle(kind, label string, cfg fu.Config, ifaces int,
	routes []rtable.Route, dgs []Datagram, expected, budget int64, compiled bool) *Bundle {
	return &Bundle{
		Version: Version, Kind: kind, Label: label,
		Config: &cfg, Ifaces: ifaces, Routes: routes, Datagrams: dgs,
		Expected: expected, Budget: budget, Compiled: compiled,
		RecorderCap: obs.DefaultRecorderCap,
	}
}

// AttachStall copies a StallError's terminal state — including the
// flight-recorder tail, when one was armed — into the bundle.
func (b *Bundle) AttachStall(se *router.StallError) {
	b.Err = se.Error()
	b.StallCause = se.Cause.String()
	b.StallCycle = se.Cycles
	b.PC = se.PC
	b.Popped = se.Popped
	b.QueueLen = se.QueueLen
	b.Cards = se.Cards
	b.Sockets = se.Sockets
	b.SocketNames = se.SocketNames
	b.Tail = se.Tail
	b.TailDropped = se.TailDropped
}

// Failures builds the bundles a checked run (router.TACO.RunChecked)
// calls for, each a copy of b — the replay-input half, see
// NewRouterBundle — of its own kind, with that failure's evidence:
//   - a stall, when err is a *router.StallError;
//   - a fate divergence, when a datagram's outcome differs from the
//     reference;
//   - a drop audit, when a card's drop counters differ or a machine drop
//     went unexplained.
//
// A differential bundle carries the tail of tr's flight recorder when one
// is armed. A clean run, or one that failed otherwise, calls for none.
func (b *Bundle) Failures(tr *router.TACO, run router.Checked, err error) []*Bundle {
	var out []*Bundle
	add := func(kind string) *Bundle {
		c := *b
		c.Kind = kind
		out = append(out, &c)
		return &c
	}
	var se *router.StallError
	if errors.As(err, &se) {
		add(KindStall).AttachStall(se)
		return out
	}
	if err != nil {
		return nil
	}
	if len(run.Diff.Seqs) > 0 {
		c := add(KindFateDivergence)
		c.WantFates, c.GotFates = Fates(run.Want), Fates(run.Outcomes)
	}
	if len(run.Diff.Cards) > 0 || run.Unexplained > 0 {
		c := add(KindDropAudit)
		c.Unexplained = run.Unexplained
		c.WantDrops, c.GotDrops = DropMaps(run.Want), DropMaps(run.Outcomes)
	}
	if rec := tr.Recorder(); rec != nil {
		for _, c := range out {
			c.Tail, c.TailDropped, c.SocketNames = rec.Tail(), rec.Dropped(), tr.Machine.SocketNames()
		}
	}
	return out
}

// Save writes the bundle into dir (created if needed) under a
// deterministic content-derived name — kind, sanitized label, and a
// hash of the serialized bytes — so concurrent sweep workers produce
// identical file sets regardless of completion order. It returns the
// written path.
func (b *Bundle) Save(dir string) (string, error) {
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return "", fmt.Errorf("forensics: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	name := fmt.Sprintf("%s-%016x.json", sanitizeName(b.Kind+"-"+b.Label), h.Sum64())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("forensics: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("forensics: %w", err)
	}
	return path, nil
}

// Capture saves the bundle into dir and wraps cause, the failure it
// records, with the written path (a *CapturedError). A save failure is
// reported alongside cause rather than eclipsing it.
func (b *Bundle) Capture(dir string, cause error) error {
	path, err := b.Save(dir)
	if err != nil {
		return fmt.Errorf("%w (forensics capture failed: %v)", cause, err)
	}
	return &CapturedError{Err: cause, Bundle: path}
}

// Load reads and validates a bundle file. A router bundle must name at
// least one interface and deliver every datagram on one of them, in
// increasing Seq order.
func Load(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("forensics: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("forensics: %s: %w", path, err)
	}
	if b.Version == 0 || b.Version > Version {
		return nil, fmt.Errorf("forensics: %s: unsupported bundle version %d (this build reads <= %d)",
			path, b.Version, Version)
	}
	if b.Kind == "" {
		return nil, fmt.Errorf("forensics: %s: bundle has no kind", path)
	}
	if b.Kind != KindMachineStall {
		if b.Ifaces < 1 {
			return nil, fmt.Errorf("forensics: %s: ifaces %d: a router bundle needs at least one interface", path, b.Ifaces)
		}
		for i, d := range b.Datagrams {
			if d.Iface < 0 || d.Iface >= b.Ifaces {
				return nil, fmt.Errorf("forensics: %s: datagrams[%d].iface %d outside [0, %d)", path, i, d.Iface, b.Ifaces)
			}
			if i > 0 && d.Seq <= b.Datagrams[i-1].Seq {
				return nil, fmt.Errorf("forensics: %s: datagrams[%d].seq %d does not increase", path, i, d.Seq)
			}
		}
	}
	return &b, nil
}

// sanitizeName maps an arbitrary label to a safe file-name fragment.
func sanitizeName(s string) string {
	var sb strings.Builder
	lastDash := false
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			sb.WriteRune(r)
			lastDash = false
		default:
			if !lastDash && sb.Len() > 0 {
				sb.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.TrimRight(sb.String(), "-")
}

// CapturedError wraps a failure whose forensic bundle was written. The
// wrapped error stays matchable (errors.Is/As see through Unwrap), and
// the message carries the bundle path so even plain %v reporting points
// at the repro artifact.
type CapturedError struct {
	Err    error
	Bundle string
}

func (e *CapturedError) Error() string {
	return fmt.Sprintf("%v [bundle %s]", e.Err, e.Bundle)
}

// Unwrap exposes the original failure to errors.Is / errors.As.
func (e *CapturedError) Unwrap() error { return e.Err }

// BundlePath extracts the forensic-bundle path from an error chain, or
// "" when no bundle was captured.
func BundlePath(err error) string {
	var ce *CapturedError
	if errors.As(err, &ce) {
		return ce.Bundle
	}
	return ""
}

// Package fault is the repository's deterministic fault-injection
// layer: seeded, composable datagram mutators that turn a well-formed
// workload into adversarial traffic, link-fault schedules (flaps, loss,
// corruption) for the line cards, metric-16 RIPng poison storms, and
// seeded soak campaigns that drive the golden and TACO routers
// differentially over all of it.
//
// Everything here is reproducible: the same seed and call order produce
// the same faults, so a failing campaign is a test case, not a shrug.
// A nil *Injector is the disabled state and costs one nil check per
// datagram — the fault-off forwarding path stays allocation-free and
// cycle-identical to a build without this package.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"taco/internal/ipv6"
	"taco/internal/linecard"
	"taco/internal/workload"
)

// Mutator rewrites one datagram into an adversarial variant. Mutators
// may modify d in place and/or return a different slice; all randomness
// must come from rng so campaigns replay exactly.
type Mutator interface {
	Name() string
	Mutate(rng *workload.RNG, d []byte) []byte
}

// mutatorFunc adapts a function to the Mutator interface.
type mutatorFunc struct {
	name string
	fn   func(rng *workload.RNG, d []byte) []byte
}

func (m mutatorFunc) Name() string                              { return m.name }
func (m mutatorFunc) Mutate(rng *workload.RNG, d []byte) []byte { return m.fn(rng, d) }

// The built-in mutators, one per adversarial traffic class the paper's
// router must survive.

// Truncate cuts the frame short: a runt (under 40 bytes) or a frame
// whose IPv6 Payload Length now overruns what was received.
func Truncate() Mutator {
	return mutatorFunc{"truncate", func(rng *workload.RNG, d []byte) []byte {
		if len(d) == 0 {
			return d
		}
		return d[:rng.Intn(len(d))]
	}}
}

// BadVersion rewrites the version nibble to anything but 6.
func BadVersion() Mutator {
	return mutatorFunc{"badversion", func(rng *workload.RNG, d []byte) []byte {
		if len(d) == 0 {
			return d
		}
		v := (int(ipv6.Version) + 1 + rng.Intn(15)) % 16
		d[0] = byte(v)<<4 | d[0]&0x0f
		return d
	}}
}

// LenMismatch inflates the Payload Length field past the frame's end.
func LenMismatch() Mutator {
	return mutatorFunc{"lenmismatch", func(rng *workload.RNG, d []byte) []byte {
		if len(d) < 6 {
			return d
		}
		over := len(d) - ipv6.HeaderBytes + 1 + rng.Intn(1024)
		if over < 1 {
			over = 1
		}
		if over > 0xffff {
			over = 0xffff
		}
		d[4], d[5] = byte(over>>8), byte(over)
		return d
	}}
}

// HopLimit sets the hop limit to 0 or 1 — not forwardable either way.
func HopLimit() Mutator {
	return mutatorFunc{"hoplimit", func(rng *workload.RNG, d []byte) []byte {
		if len(d) < ipv6.HeaderBytes {
			return d
		}
		d[7] = byte(rng.Intn(2))
		return d
	}}
}

// ExtChain rebuilds a valid datagram with a chain of hop-by-hop and
// destination-options extension headers in front of an unknown upper
// protocol — sometimes longer than the 16 headers UpperLayer tolerates.
// The rebuilt datagram is internally consistent, so it exercises the
// whole-datagram storage path rather than a drop path (unless the chain
// pushes the frame over the MTU, which is an oversize drop both routers
// must agree on).
func ExtChain() Mutator {
	return mutatorFunc{"extchain", func(rng *workload.RNG, d []byte) []byte {
		h, r := ipv6.ClassifyForward(d)
		if r != ipv6.DropNone && r != ipv6.DropHopLimit {
			return d // need a parseable, length-consistent frame to rebuild
		}
		n := 2 + rng.Intn(18) // occasionally beyond the 16-header walk limit
		exts := make([]ipv6.ExtensionHeader, n)
		for i := range exts {
			proto := uint8(ipv6.ProtoHopByHop)
			if i%2 == 1 {
				proto = ipv6.ProtoDestOpts
			}
			exts[i] = ipv6.ExtensionHeader{Proto: proto, Body: []byte{byte(rng.Intn(256))}}
		}
		const unknownProto = 253 // RFC 3692 experimental
		out, err := ipv6.BuildDatagram(h, exts, unknownProto, d[ipv6.HeaderBytes:])
		if err != nil {
			return d
		}
		return out
	}}
}

// Oversize pads the frame beyond the line cards' MTU contract.
func Oversize() Mutator {
	return mutatorFunc{"oversize", func(rng *workload.RNG, d []byte) []byte {
		pad := linecard.MaxFrameBytes - len(d) + 1 + rng.Intn(64)
		if pad < 1 {
			pad = 1
		}
		return append(d, make([]byte, pad)...)
	}}
}

// BitFlip flips one random bit anywhere in the frame — the catch-all
// corruption the taxonomy must classify consistently wherever it lands.
func BitFlip() Mutator {
	return mutatorFunc{"bitflip", func(rng *workload.RNG, d []byte) []byte {
		if len(d) == 0 {
			return d
		}
		bit := rng.Intn(len(d) * 8)
		d[bit/8] ^= 1 << (bit % 8)
		return d
	}}
}

// AllMutators returns one instance of every built-in mutator, in
// spec-name order.
func AllMutators() []Mutator {
	return []Mutator{
		Truncate(), BadVersion(), LenMismatch(), HopLimit(),
		ExtChain(), Oversize(), BitFlip(),
	}
}

// MutatorByName resolves a spec name.
func MutatorByName(name string) (Mutator, error) {
	for _, m := range AllMutators() {
		if m.Name() == name {
			return m, nil
		}
	}
	var names []string
	for _, m := range AllMutators() {
		names = append(names, m.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("fault: unknown mutator %q (%s | all)", name, strings.Join(names, " | "))
}

// Rule pairs a mutator with its per-datagram application probability.
type Rule struct {
	Mutator Mutator
	Prob    float64
}

// Injector applies a rule set to a datagram stream. A nil *Injector is
// the disabled state: Apply returns its input untouched after one nil
// check, so the fault-off path costs nothing (mirroring obs.Counters).
type Injector struct {
	rules  []Rule
	rng    *workload.RNG
	counts []int64
}

// NewInjector returns a seeded injector over the given rules.
func NewInjector(seed uint64, rules ...Rule) *Injector {
	return &Injector{
		rules:  rules,
		rng:    workload.NewRNG(seed),
		counts: make([]int64, len(rules)),
	}
}

// Apply runs every rule against d in order, each firing with its own
// probability, and returns the (possibly mutated) datagram.
func (in *Injector) Apply(d []byte) []byte {
	if in == nil {
		return d
	}
	for i, r := range in.rules {
		if in.rng.Float64() < r.Prob {
			d = r.Mutator.Mutate(in.rng, d)
			in.counts[i]++
		}
	}
	return d
}

// Counts returns per-mutator application counts keyed by mutator name.
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return nil
	}
	out := make(map[string]int64, len(in.rules))
	for i, r := range in.rules {
		out[r.Mutator.Name()] += in.counts[i]
	}
	return out
}

// DefaultProb is the per-datagram probability used when a spec entry
// names a mutator without one.
const DefaultProb = 0.2

// ParseSpec builds an injector from a compact fault spec: a
// comma-separated list of name[:probability] entries, e.g.
//
//	truncate:0.1,hoplimit:0.05
//	all:0.02
//
// "all" expands to every built-in mutator at the given probability.
// An empty spec returns a nil injector (faults disabled).
func ParseSpec(spec string, seed uint64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	seen := map[string]bool{}
	add := func(m Mutator, prob float64) error {
		if seen[m.Name()] {
			return fmt.Errorf("fault: duplicate mutator %q in spec %q", m.Name(), spec)
		}
		seen[m.Name()] = true
		rules = append(rules, Rule{Mutator: m, Prob: prob})
		return nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, probStr, hasProb := strings.Cut(entry, ":")
		prob := DefaultProb
		if hasProb {
			p, err := strconv.ParseFloat(probStr, 64)
			if err != nil || !(p >= 0 && p <= 1) { // NaN fails both
				return nil, fmt.Errorf("fault: bad probability %q in %q", probStr, entry)
			}
			prob = p
		}
		if name == "all" {
			for _, m := range AllMutators() {
				if err := add(m, prob); err != nil {
					return nil, err
				}
			}
			continue
		}
		m, err := MutatorByName(name)
		if err != nil {
			return nil, err
		}
		if err := add(m, prob); err != nil {
			return nil, err
		}
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return NewInjector(seed, rules...), nil
}

// SpecNames returns the built-in mutator names for usage strings.
func SpecNames() string {
	var names []string
	for _, m := range AllMutators() {
		names = append(names, m.Name())
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

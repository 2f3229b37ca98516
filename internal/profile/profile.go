// Package profile attributes executed machine cycles to program
// regions, so the evaluation can report *where* a configuration spends
// its time — the "key bottlenecks" analysis the paper's methodology is
// for. A region is the half-open address range between two program
// labels; cycle attribution reads the flight recorder between the
// cycles of a stepped run.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"taco/internal/isa"
	"taco/internal/obs"
	"taco/internal/tta"
)

// Region is one labelled address range with its cycle count.
type Region struct {
	Label       string
	Start, End  int // [Start, End)
	Cycles      int64
	MovesIssued int64
}

// Profile accumulates per-region cycles for one program.
type Profile struct {
	regions []Region
	byAddr  []int // instruction address -> region index
	total   int64
}

// New builds a profile over prog's labels. Instructions before the
// first label belong to a synthetic "(entry)" region.
func New(prog *isa.Program) *Profile {
	type lbl struct {
		name string
		addr int
	}
	var labels []lbl
	for name, addr := range prog.Labels {
		labels = append(labels, lbl{name, addr})
	}
	sort.Slice(labels, func(i, j int) bool {
		if labels[i].addr != labels[j].addr {
			return labels[i].addr < labels[j].addr
		}
		return labels[i].name < labels[j].name
	})
	p := &Profile{byAddr: make([]int, len(prog.Ins))}
	add := func(name string, start, end int) {
		if start >= end {
			return
		}
		p.regions = append(p.regions, Region{Label: name, Start: start, End: end})
		for a := start; a < end && a < len(p.byAddr); a++ {
			p.byAddr[a] = len(p.regions) - 1
		}
	}
	prev := lbl{"(entry)", 0}
	for _, l := range labels {
		if l.addr == prev.addr {
			// Two labels at one address: collapse into one region name,
			// dropping the synthetic entry marker.
			if prev.name == "(entry)" {
				prev.name = l.name
			} else {
				prev.name = prev.name + "/" + l.name
			}
			continue
		}
		add(prev.name, prev.addr, l.addr)
		prev = l
	}
	add(prev.name, prev.addr, len(prog.Ins))
	return p
}

// Hook returns the observer to hand to a stepped run (RunStepped on
// the router or the bare machine). Every cycle is charged to the region
// of the PC it executed — whether or not it encoded a move — and every
// recorded move whose guard held to that region's MovesIssued.
func (p *Profile) Hook() tta.CycleFunc {
	return func(_ int64, pc int, events []obs.RecEvent) bool {
		p.total++
		if pc < 0 || pc >= len(p.byAddr) {
			return true
		}
		reg := &p.regions[p.byAddr[pc]]
		reg.Cycles++
		for _, e := range events {
			switch e.Kind {
			case obs.EvMove, obs.EvTrigger, obs.EvJump, obs.EvHalt:
				reg.MovesIssued++
			}
		}
		return true
	}
}

// Total returns the number of traced cycles.
func (p *Profile) Total() int64 { return p.total }

// Regions returns the regions sorted by descending cycle count.
func (p *Profile) Regions() []Region {
	out := append([]Region(nil), p.regions...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// FindRegion resolves a region query: an exact label match always
// wins; otherwise label is treated as a substring, which must identify
// exactly one region. Candidate labels are scanned in sorted order, so
// a (reported) ambiguity lists them deterministically regardless of the
// program's label layout.
func (p *Profile) FindRegion(label string) (Region, error) {
	var matches []Region
	for _, r := range p.regions {
		if r.Label == label {
			return r, nil
		}
		if strings.Contains(r.Label, label) {
			matches = append(matches, r)
		}
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].Label < matches[j].Label })
	switch len(matches) {
	case 0:
		return Region{}, fmt.Errorf("profile: no region matches %q", label)
	case 1:
		return matches[0], nil
	}
	labels := make([]string, len(matches))
	for i, r := range matches {
		labels[i] = r.Label
	}
	return Region{}, fmt.Errorf("profile: %q is ambiguous: matches %s",
		label, strings.Join(labels, ", "))
}

// RegionCycles returns the cycle count for a named region — exact label
// match first, then a substring match that must be unique (see
// FindRegion). It returns 0 when the query matches no region or is
// ambiguous, so an imprecise query can never silently return the wrong
// region's cycles.
func (p *Profile) RegionCycles(label string) int64 {
	r, err := p.FindRegion(label)
	if err != nil {
		return 0
	}
	return r.Cycles
}

// String renders the profile as a table.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %8s %7s %8s\n", "region", "addr", "cycles", "%", "moves")
	for _, r := range p.Regions() {
		if r.Cycles == 0 {
			continue
		}
		pct := 0.0
		if p.total > 0 {
			pct = 100 * float64(r.Cycles) / float64(p.total)
		}
		fmt.Fprintf(&b, "%-14s %4d-%-4d %8d %6.1f%% %8d\n",
			r.Label, r.Start, r.End-1, r.Cycles, pct, r.MovesIssued)
	}
	fmt.Fprintf(&b, "total cycles: %d\n", p.total)
	return b.String()
}

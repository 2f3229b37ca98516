// Package profile attributes executed machine cycles to program
// regions, so the evaluation can report *where* a configuration spends
// its time — the "key bottlenecks" analysis the paper's methodology is
// for. A region is the half-open address range between two program
// labels; its cycles and moves are read off the machine's execution
// count (tta.Count) after a run on either step path.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"taco/internal/isa"
	"taco/internal/tta"
)

// Region is one labelled address range with its cycle count.
type Region struct {
	Label       string
	Start, End  int // [Start, End)
	Cycles      int64
	MovesIssued int64
}

// Profile is the per-region cycle attribution of one program.
type Profile struct {
	regions []Region
	total   int64
}

// New attributes an execution count of prog to prog's labelled
// regions: every counted cycle to the region of the PC it issued, and
// every move of it whose guard held to that region's MovesIssued.
// Instructions before the first label belong to a synthetic "(entry)"
// region; a zero Count gives every region zero cycles.
func New(prog *isa.Program, c tta.Count) *Profile {
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
	p := &Profile{}
	byAddr := make([]int, len(prog.Ins)) // instruction address -> region index
	add := func(name string, start, end int) {
		if start >= end {
			return
		}
		p.regions = append(p.regions, Region{Label: name, Start: start, End: end})
		for a := start; a < end && a < len(byAddr); a++ {
			byAddr[a] = len(p.regions) - 1
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

	move := 0 // flat index of the PC's first move
	for pc, n := range c.Issued {
		moves := len(prog.Ins[pc].Moves)
		r := &p.regions[byAddr[pc]]
		r.Cycles += n
		r.MovesIssued += n * int64(moves)
		for _, sq := range c.Squashed[move : move+moves] {
			r.MovesIssued -= sq
		}
		move += moves
		p.total += n
	}
	return p
}

// Total returns the number of counted cycles.
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

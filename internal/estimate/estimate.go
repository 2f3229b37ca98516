// Package estimate implements the system-level physical characteristics
// model of the paper's flow (there a Matlab model, verified against
// post-synthesis results in the authors' earlier work): silicon area,
// average power and the achievable clock frequency of a TACO processor
// configuration in a 0.18 µm standard-cell technology.
//
// The model has the same structure the paper describes:
//
//   - every functional unit, socket and bus contributes a base area and
//     an effective switched capacitance;
//   - dynamic power is C·V²·f;
//   - approaching the technology's frequency ceiling requires larger
//     gates, inflating both area and power superlinearly — the effect
//     behind the paper's observation that the 1 GHz sequential
//     configuration "is not acceptable" in power even though it is
//     barely implementable;
//   - beyond the ceiling (≈1 GHz in the paper's 0.18 µm library) the
//     configuration is infeasible and reported as NA, as in Table 1.
//
// The constants are calibrated to the paper's published anchors, not to
// any real library; DESIGN.md documents the substitution.
package estimate

import (
	"fmt"
	"math"

	"taco/internal/fu"
)

// Tech describes the implementation technology.
type Tech struct {
	Name string
	// MaxClockHz is the highest implementable clock ("the upper limit
	// for TACO clock frequencies using this technology is near 1 GHz").
	MaxClockHz float64
	// VddV is the supply voltage (1.8 V at 0.18 µm).
	VddV float64
	// LeakageWPerMM2 models static power per unit area.
	LeakageWPerMM2 float64
	// SizingStrength scales the gate-upsizing penalty near MaxClockHz.
	SizingStrength float64
}

// Default180nm returns the paper's 0.18 µm standard-cell technology.
func Default180nm() Tech {
	return Tech{
		Name:           "0.18um",
		MaxClockHz:     1.05e9,
		VddV:           1.8,
		LeakageWPerMM2: 0.002,
		SizingStrength: 2.5,
	}
}

// moduleCost holds per-instance base area (mm²) and effective switched
// capacitance (F) at nominal gate sizing.
type moduleCost struct {
	areaMM2 float64
	capF    float64
}

// Per-module base costs. Magnitudes are representative of small 32-bit
// datapath blocks in 0.18 µm; see the package comment for calibration.
var moduleCosts = map[string]moduleCost{
	"counter":    {areaMM2: 0.14, capF: 38e-12},
	"comparator": {areaMM2: 0.09, capF: 26e-12},
	"matcher":    {areaMM2: 0.10, capF: 30e-12},
	"masker":     {areaMM2: 0.08, capF: 22e-12},
	"shifter":    {areaMM2: 0.11, capF: 28e-12},
	"checksum":   {areaMM2: 0.12, capF: 30e-12},
	"gprReg":     {areaMM2: 0.015, capF: 4e-12},
	"mmuCtl":     {areaMM2: 0.45, capF: 60e-12},
	"memKWord":   {areaMM2: 0.09, capF: 1.5e-12}, // per 1 K words of SRAM
	"rtu":        {areaMM2: 0.30, capF: 45e-12},
	"liu":        {areaMM2: 0.10, capF: 12e-12},
	"ippu":       {areaMM2: 0.25, capF: 40e-12},
	"oppu":       {areaMM2: 0.25, capF: 40e-12},
	"controller": {areaMM2: 0.40, capF: 55e-12},
	"bus":        {areaMM2: 0.20, capF: 70e-12}, // 32-bit bus incl. drivers
	"socket":     {areaMM2: 0.01, capF: 2.5e-12},
	// Instruction memory, per move slot (≈64-bit slice of every word
	// across a 1 K-instruction program store).
	"progMemSlot": {areaMM2: 0.18, capF: 8e-12},
}

// ModuleCost reports one line of the estimate breakdown.
type ModuleCost struct {
	Module  string
	Count   int
	AreaMM2 float64
	PowerW  float64
}

// Estimate is the physical characterisation of one configuration at one
// clock frequency.
type Estimate struct {
	ClockHz    float64
	AreaMM2    float64
	PowerW     float64
	MaxClockHz float64
	// Feasible reports whether ClockHz is implementable in the
	// technology; when false, area and power are reported at the
	// requested clock anyway but correspond to the paper's "NA" cells.
	Feasible  bool
	Breakdown []ModuleCost
}

// kindSockets is the socket count of one unit of each fu.UnitKinds
// entry, read once from its port table.
var kindSockets = func() []int {
	n := make([]int, len(fu.UnitKinds))
	for i, k := range fu.UnitKinds {
		n[i] = len(k.New(k.Stem).Ports().Sockets)
	}
	return n
}()

// socketCount approximates the configuration's socket total: each unit
// type contributes its socket list size. The RTU term is typed by hand
// and is the sequential backend's; the tree's RTU has one socket more
// and the CAM's six fewer (TestSocketCountError).
func socketCount(cfg fu.Config) int {
	n := 2 // controller jump/halt
	for i, k := range fu.UnitKinds {
		n += k.Count(cfg) * kindSockets[i]
	}
	n += cfg.GPRs
	n += 4     // mmu
	n += 12    // rtu
	n += 6     // liu
	n += 4 + 3 // ippu + oppu
	return n
}

// sizing returns the gate-upsizing factor needed to close timing at f.
func sizing(f float64, tech Tech) float64 {
	r := f / tech.MaxClockHz
	if r > 1 {
		r = 1
	}
	return 1 + tech.SizingStrength*math.Pow(r, 3)
}

// Physical estimates cfg at clockHz in tech.
func Physical(cfg fu.Config, clockHz float64, tech Tech) Estimate {
	s := sizing(clockHz, tech)
	v2 := tech.VddV * tech.VddV

	var breakdown []ModuleCost
	var area, power float64
	add := func(module string, count int, activity float64) {
		c := moduleCosts[module]
		a := c.areaMM2 * float64(count) * s
		p := c.capF * float64(count) * v2 * clockHz * s * activity
		area += a
		power += p
		breakdown = append(breakdown, ModuleCost{Module: module, Count: count, AreaMM2: a, PowerW: p})
	}
	// Activity factors: datapath units switch on most cycles in the
	// forwarding loop; storage and I/O less so.
	add("counter", cfg.Counters, 0.5)
	add("comparator", cfg.Comparators, 0.5)
	add("matcher", cfg.Matchers, 0.6)
	add("masker", cfg.Maskers, 0.3)
	add("shifter", cfg.Shifters, 0.3)
	add("checksum", cfg.Checksums, 0.2)
	add("gprReg", cfg.GPRs, 0.3)
	add("mmuCtl", 1, 0.5)
	add("memKWord", (cfg.MemWords+1023)/1024, 0.4)
	add("rtu", 1, 0.6)
	add("liu", 1, 0.2)
	add("ippu", 1, 0.4)
	add("oppu", 1, 0.4)
	add("controller", 1, 0.8)
	add("bus", cfg.Buses, 0.7)
	add("socket", socketCount(cfg), 0.4)
	// Program memory: a TTA instruction word carries one move slot per
	// bus, so instruction memory width — and with it area and read
	// power — grows with the transport capacity. This is the hidden
	// cost of wide instances that Table 1's area column reflects.
	add("progMemSlot", cfg.Buses, 0.8)

	power += area * tech.LeakageWPerMM2

	return Estimate{
		ClockHz:    clockHz,
		AreaMM2:    area,
		PowerW:     power,
		MaxClockHz: tech.MaxClockHz,
		Feasible:   clockHz <= tech.MaxClockHz,
		Breakdown:  breakdown,
	}
}

// FormatHz renders a frequency the way Table 1 does (GHz / MHz).
func FormatHz(f float64) string {
	switch {
	case f >= 1e9:
		return trimZero(fmt.Sprintf("%.1f", f/1e9)) + " GHz"
	case f >= 1e6:
		return fmt.Sprintf("%.0f MHz", f/1e6)
	case f >= 1e3:
		return fmt.Sprintf("%.0f kHz", f/1e3)
	}
	return fmt.Sprintf("%.0f Hz", f)
}

func trimZero(s string) string {
	if len(s) > 2 && s[len(s)-2:] == ".0" {
		return s[:len(s)-2]
	}
	return s
}

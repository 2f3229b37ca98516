package estimate

import (
	"fmt"
	"math"

	"taco/internal/rtable"
)

// tcamStandbyFrac is the standby power an inactive (not-searched)
// tiled-TCAM block draws relative to an active one: match lines are
// not precharged, only the cell array leaks. The MashUp-style win is
// that per search one block pays full search power and the rest pay
// only this fraction, where the monolithic CAM pays full power on
// every chip for every search.
const tcamStandbyFrac = 0.08

// memKWordBits is the capacity of the "memKWord" cost unit (1 K words
// of 32-bit SRAM), tying table storage to the same cost basis as the
// processor's packet memory.
const memKWordBits = 1024 * 32

// TableMem is the memory co-analysis of one table organisation at one
// database size: the storage the routing-table unit addresses, priced
// in the technology's SRAM cost basis.
type TableMem struct {
	// Bits is the total on-chip table storage.
	Bits int64
	// AreaMM2 and PowerW are the on-chip SRAM contribution (dynamic at
	// a low row-access activity plus leakage over the array area).
	AreaMM2 float64
	PowerW  float64
	// CAMChips counts the external CAM devices holding the ternary cells
	// (0 for kinds without any); CAMPowerW is their total chip power, kept
	// separate from PowerW the way Table 1 footnotes the CAM chip.
	CAMChips  int
	CAMPowerW float64
}

// TableSRAM prices the storage of a kind table with dimensions dims at
// clockHz in tech: on-chip SRAM regions make up Bits, priced as memory;
// ternary regions are external chips of the paper's CAM part, powered
// by the region's search rule — every chip searched flat-out (the CAM),
// or one block at full search power over its share of a chip and every
// other cell in standby (the tiled TCAM).
func TableSRAM(kind rtable.Kind, dims rtable.MemDims, clockHz float64, tech Tech) TableMem {
	var m TableMem
	cam := rtable.DefaultCAMConfig()
	for _, r := range kind.Regions(dims) {
		if !r.Ternary {
			m.Bits += int64(r.Records) * int64(r.Bits)
			continue
		}
		chips := (r.Records + cam.Capacity - 1) / cam.Capacity
		m.CAMChips += chips
		if r.Searched == 0 {
			m.CAMPowerW += float64(chips) * cam.ChipPowerW
			continue
		}
		active := cam.ChipPowerW * float64(r.Searched) / float64(cam.Capacity)
		standby := tcamStandbyFrac * cam.ChipPowerW * float64(chips)
		m.CAMPowerW += active + standby
	}

	kwords := float64(m.Bits) / memKWordBits
	c := moduleCosts["memKWord"]
	s := sizing(clockHz, tech)
	m.AreaMM2 = c.areaMM2 * kwords * s
	// One row access per probe keeps large arrays mostly idle: a much
	// lower activity than the processor's small working memories.
	const tableActivity = 0.05
	dynamic := c.capF * kwords * tech.VddV * tech.VddV * clockHz * s * tableActivity
	m.PowerW = dynamic + m.AreaMM2*tech.LeakageWPerMM2
	return m
}

// FormatBits renders a bit count with a binary-scaled unit.
func FormatBits(bits int64) string {
	f := float64(bits)
	switch {
	case f >= math.Exp2(30):
		return trimZero(fmt.Sprintf("%.1f", f/math.Exp2(30))) + " Gbit"
	case f >= math.Exp2(20):
		return trimZero(fmt.Sprintf("%.1f", f/math.Exp2(20))) + " Mbit"
	case f >= math.Exp2(10):
		return trimZero(fmt.Sprintf("%.1f", f/math.Exp2(10))) + " Kbit"
	}
	return fmt.Sprintf("%d bit", bits)
}

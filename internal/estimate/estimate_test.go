package estimate

import (
	"math"
	"testing"

	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/rtable"
)

func TestPowerScalesWithFrequency(t *testing.T) {
	tech := Default180nm()
	cfg := fu.Config3Bus1FU(rtable.BalancedTree)
	lo := Physical(cfg, 100e6, tech)
	hi := Physical(cfg, 600e6, tech)
	if hi.PowerW <= lo.PowerW {
		t.Errorf("power did not grow with frequency: %v vs %v", hi.PowerW, lo.PowerW)
	}
	// Superlinear near the ceiling: power(1GHz)/power(500MHz) > 2.
	p5 := Physical(cfg, 500e6, tech).PowerW
	p10 := Physical(cfg, 1e9, tech).PowerW
	if p10 < 2.2*p5 {
		t.Errorf("no superlinear gate-sizing penalty: %v vs %v", p10, p5)
	}
}

func TestAreaGrowsWithUnitsAndFrequency(t *testing.T) {
	tech := Default180nm()
	small := Physical(fu.Config1Bus1FU(rtable.Sequential), 250e6, tech)
	big := Physical(fu.Config3Bus3FU(rtable.Sequential), 250e6, tech)
	if big.AreaMM2 <= small.AreaMM2 {
		t.Errorf("replicated config not larger: %v vs %v", big.AreaMM2, small.AreaMM2)
	}
	slow := Physical(fu.Config3Bus3FU(rtable.Sequential), 100e6, tech)
	fast := Physical(fu.Config3Bus3FU(rtable.Sequential), 1e9, tech)
	if fast.AreaMM2 <= slow.AreaMM2 {
		t.Errorf("gate sizing did not grow area: %v vs %v", fast.AreaMM2, slow.AreaMM2)
	}
}

func TestFeasibilityCeiling(t *testing.T) {
	tech := Default180nm()
	cfg := fu.Config1Bus1FU(rtable.Sequential)
	if e := Physical(cfg, 1e9, tech); !e.Feasible {
		t.Error("1 GHz reported infeasible (the paper calls it near the limit)")
	}
	if e := Physical(cfg, 2e9, tech); e.Feasible {
		t.Error("2 GHz reported feasible (the paper calls it beyond 0.18um)")
	}
	if e := Physical(cfg, 6e9, tech); e.Feasible {
		t.Error("6 GHz reported feasible")
	}
}

func TestCalibrationAnchors(t *testing.T) {
	// Qualitative anchors from the paper's discussion of Table 1:
	tech := Default180nm()

	// The 3-bus/3-FU sequential configuration at ~1 GHz consumes power
	// that is "not acceptable" — several watts.
	seqHot := Physical(fu.Config3Bus3FU(rtable.Sequential), 1e9, tech)
	if seqHot.PowerW < 2.5 {
		t.Errorf("1 GHz replicated config only %.2f W; expected an unacceptable figure", seqHot.PowerW)
	}

	// The balanced-tree configurations at 250-600 MHz are moderate.
	tree := Physical(fu.Config3Bus3FU(rtable.BalancedTree), 250e6, tech)
	if tree.PowerW > 1.5 {
		t.Errorf("250 MHz tree config %.2f W; expected moderate", tree.PowerW)
	}

	// The CAM-assisted rows run at tens of MHz and must be well under
	// the external CAM chip's own 1.5-2 W, making the paper's point that
	// total power is comparable.
	cam := Physical(fu.Config3Bus1FU(rtable.CAM), 40e6, tech)
	camChip := rtable.DefaultCAMConfig().ChipPowerW
	if cam.PowerW > camChip {
		t.Errorf("40 MHz TACO core %.2f W exceeds the CAM chip's %.2f W", cam.PowerW, camChip)
	}
	if cam.PowerW <= 0 {
		t.Error("zero power estimate")
	}

	// Areas are plausible die sizes (single-digit to tens of mm²).
	if seqHot.AreaMM2 < 3 || seqHot.AreaMM2 > 80 {
		t.Errorf("area %.1f mm² implausible", seqHot.AreaMM2)
	}
}

func TestBreakdownSumsToTotals(t *testing.T) {
	tech := Default180nm()
	e := Physical(fu.Config3Bus3FU(rtable.CAM), 500e6, tech)
	var area, power float64
	for _, m := range e.Breakdown {
		area += m.AreaMM2
		power += m.PowerW
	}
	if math.Abs(area-e.AreaMM2) > 1e-9 {
		t.Errorf("breakdown area %.4f != total %.4f", area, e.AreaMM2)
	}
	// Total includes leakage on top of the breakdown's dynamic power.
	if power > e.PowerW {
		t.Errorf("dynamic %.4f exceeds total %.4f", power, e.PowerW)
	}
	if e.PowerW-power > 0.5 {
		t.Errorf("leakage term suspiciously large: %.4f", e.PowerW-power)
	}
}

func TestFormatHz(t *testing.T) {
	cases := map[float64]string{
		6e9:   "6 GHz",
		2e9:   "2 GHz",
		1.2e9: "1.2 GHz",
		600e6: "600 MHz",
		35e6:  "35 MHz",
		118e6: "118 MHz",
		2.5e3: "2 kHz",
		500:   "500 Hz",
	}
	for f, want := range cases {
		if got := FormatHz(f); got != want {
			t.Errorf("FormatHz(%v) = %q, want %q", f, got, want)
		}
	}
}

func TestSizingMonotone(t *testing.T) {
	tech := Default180nm()
	prev := 0.0
	for f := 1e8; f <= 1.05e9; f += 1e8 {
		s := sizing(f, tech)
		if s < prev {
			t.Fatalf("sizing not monotone at %v", f)
		}
		prev = s
	}
	if s := sizing(5e9, tech); s != sizing(tech.MaxClockHz, tech) {
		t.Error("sizing not clamped past the ceiling")
	}
}

// TestTableSRAMTernaryRules: ternary regions are priced by their own
// search rule. A CAM priced from its entry count alone (no table built)
// searches every chip; a one-block tiled TCAM pays one block's share of
// a chip plus standby even though its single block is all it has.
func TestTableSRAMTernaryRules(t *testing.T) {
	tech, cam := Default180nm(), rtable.DefaultCAMConfig()
	m := TableSRAM(rtable.CAM, rtable.MemDims{Entries: cam.Capacity + 1}, 100e6, tech)
	if m.CAMChips != 2 || m.CAMPowerW != 2*cam.ChipPowerW || m.Bits != int64(cam.Capacity+1)*32 {
		t.Errorf("CAM at capacity+1: %+v", m)
	}
	block := rtable.DefaultTiledTCAMConfig().BlockSize
	tiled := rtable.New(rtable.TiledTCAM).MemDims()
	m = TableSRAM(rtable.TiledTCAM, tiled, 100e6, tech)
	want := cam.ChipPowerW*float64(block)/float64(cam.Capacity) + tcamStandbyFrac*cam.ChipPowerW
	if m.CAMChips != 1 || m.CAMPowerW != want {
		t.Errorf("one-block tiled TCAM: %d chips, %g W; want 1 chip, %g W", m.CAMChips, m.CAMPowerW, want)
	}
	if m := TableSRAM(rtable.BalancedTree, rtable.MemDims{Entries: 100}, 100e6, tech); m.Bits != 0 || m.CAMChips != 0 {
		t.Errorf("a measured kind without regions priced from its entry count: %+v", m)
	}
}

// socketCount's only error is its hand-typed RTU term, the sequential
// backend's 12 sockets: on every Table 1 cell it is exact for the
// sequential table, one short of the tree's RTU and six over the CAM's.
// Pricing the built machine's sockets instead moves these cells.
func TestSocketCountError(t *testing.T) {
	want := map[rtable.Kind]int{rtable.Sequential: 0, rtable.BalancedTree: -1, rtable.CAM: 6}
	for _, kind := range rtable.PaperKinds {
		for _, cfg := range fu.PaperConfigs(kind) {
			m, _, err := fu.NewRouterMachine(cfg, rtable.New(kind), linecard.NewBank(1))
			if err != nil {
				t.Fatal(err)
			}
			if d := socketCount(cfg) - m.SocketCount(); d != want[kind] {
				t.Errorf("%s/%s: socketCount %d, machine %d (difference %d, want %d)",
					kind, cfg.Name, socketCount(cfg), m.SocketCount(), d, want[kind])
			}
		}
	}
}

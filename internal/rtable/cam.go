package rtable

import (
	"fmt"

	"taco/internal/bits"
)

// CAMConfig models the hardware parameters of the content-addressable
// memory solution in the paper's §4: a 136-bit-wide CAM (128 address
// bits + 8 prefix-length bits) combined with a commercial SRAM holding
// the associated next-hop data.
type CAMConfig struct {
	// SearchNs is the total routing-table search time: CAM match plus
	// SRAM read. The paper calculates 40 ns for the combined circuits.
	SearchNs float64
	// Capacity is the number of 136-bit entries; the paper's reference
	// part is the Micron Harmony 1 Mb CAM (≈ 7700 entries at 136 bits).
	Capacity int
	// ChipPowerW is the average power drawn by the external CAM chip;
	// the Micron Harmony consumes 1.5–2 W at 133 MHz. It is *not*
	// included in the TACO processor's own power estimate, mirroring the
	// paper's Table 1 footnote.
	ChipPowerW float64
	// WidthBits is the CAM word width (136 in the paper).
	WidthBits int
}

// DefaultCAMConfig returns the paper's CAM parameters.
func DefaultCAMConfig() CAMConfig {
	return CAMConfig{SearchNs: 40, Capacity: 7700, ChipPowerW: 1.75, WidthBits: 136}
}

// CAMTable models the CAM+SRAM routing table: every lookup is a single
// fixed-latency associative search over all entries, with longest-prefix
// priority resolved by the CAM's priority encoder.
type CAMTable struct {
	cfg     CAMConfig
	entries []Route // kept sorted by prefix length descending (priority order)
	stats   Stats
}

// NewCAM returns an empty CAM table.
func NewCAM(cfg CAMConfig) *CAMTable {
	if cfg.WidthBits == 0 {
		cfg = DefaultCAMConfig()
	}
	return &CAMTable{cfg: cfg}
}

// Kind implements Table.
func (t *CAMTable) Kind() Kind { return CAM }

// Insert adds or replaces the route for r.Prefix. It fails when the CAM
// is full — a real capacity limit of the hardware solution.
func (t *CAMTable) Insert(r Route) error {
	r.Prefix = bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
	for i := range t.entries {
		if t.entries[i].Prefix == r.Prefix {
			t.entries[i] = r
			return nil
		}
	}
	if len(t.entries) >= t.cfg.Capacity {
		return fmt.Errorf("rtable: CAM full (%d entries)", t.cfg.Capacity)
	}
	t.entries = append(t.entries, r)
	sortPriority(t.entries)
	return nil
}

// InsertAll implements BulkLoader: batch the appends and sort once.
// (Prefix keys are unique after duplicate replacement, so a single sort
// yields exactly the priority order repeated Insert would have built.)
func (t *CAMTable) InsertAll(rs []Route) error {
	idx := make(map[bits.Prefix]int, len(t.entries)+len(rs))
	for i := range t.entries {
		idx[t.entries[i].Prefix] = i
	}
	for _, r := range rs {
		r.Prefix = bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
		if i, ok := idx[r.Prefix]; ok {
			t.entries[i] = r
			continue
		}
		if len(t.entries) >= t.cfg.Capacity {
			return fmt.Errorf("rtable: CAM full (%d entries)", t.cfg.Capacity)
		}
		idx[r.Prefix] = len(t.entries)
		t.entries = append(t.entries, r)
	}
	sortPriority(t.entries)
	return nil
}

// Delete removes the route for p.
func (t *CAMTable) Delete(p bits.Prefix) bool {
	p = bits.MakePrefix(p.Addr, p.Len)
	for i := range t.entries {
		if t.entries[i].Prefix == p {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return true
		}
	}
	return false
}

// Lookup performs one associative search: the first entry in priority
// order whose masked value matches wins. One lookup costs one probe
// regardless of the entry count — the CAM's defining property.
func (t *CAMTable) Lookup(addr bits.Word128) (Route, bool) {
	t.stats.Lookups++
	t.stats.Probes++ // a single parallel search
	for i := range t.entries {
		if t.entries[i].Prefix.Contains(addr) {
			return t.entries[i], true
		}
	}
	return Route{}, false
}

// Len returns the entry count.
func (t *CAMTable) Len() int { return len(t.entries) }

// Routes returns the entries in deterministic order.
func (t *CAMTable) Routes() []Route {
	out := append([]Route(nil), t.entries...)
	sortRoutes(out)
	return out
}

// Stats implements Table.
func (t *CAMTable) Stats() Stats { return t.stats }

// ResetStats implements Table.
func (t *CAMTable) ResetStats() { t.stats = Stats{} }

// MemDims implements MemSizer: one 136-bit CAM word per entry, every
// chip searched by every lookup, plus an on-chip next-hop word (the CAM
// cells themselves are off-chip).
func (t *CAMTable) MemDims() MemDims {
	return MemDims{Entries: len(t.entries), Regions: camRegions(len(t.entries))}
}

func camRegions(n int) []Region {
	return []Region{
		{Name: "next hops", Records: n, Bits: assocBits},
		{Name: "cells", Records: n, Bits: ternaryBits, Ternary: true},
	}
}

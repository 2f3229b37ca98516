package rtable

import (
	"taco/internal/bits"
)

// SequentialTable organises the routing table as a flat array of entries
// searched front to back — the paper's first case: a cache memory "in
// which the entries are organized sequentially", giving linear search
// complexity.
type SequentialTable struct {
	entries []Route
	stats   Stats
	// gen counts mutations, letting the routing-table unit cache a
	// lowered copy of the entries and invalidate it on table updates.
	gen uint64
}

// NewSequential returns an empty sequential table.
func NewSequential() *SequentialTable { return &SequentialTable{} }

// Kind implements Table.
func (t *SequentialTable) Kind() Kind { return Sequential }

// Insert adds or replaces the route for r.Prefix.
func (t *SequentialTable) Insert(r Route) error {
	t.gen++
	r.Prefix = bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
	for i := range t.entries {
		if t.entries[i].Prefix == r.Prefix {
			t.entries[i] = r
			return nil
		}
	}
	t.entries = append(t.entries, r)
	return nil
}

// InsertAll implements BulkLoader: one pass with a prefix index instead
// of the quadratic per-insert duplicate scan. Appends in slice order, so
// the storage (and hardware scan) order is identical to repeated Insert.
func (t *SequentialTable) InsertAll(rs []Route) error {
	t.gen++
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
		idx[r.Prefix] = len(t.entries)
		t.entries = append(t.entries, r)
	}
	return nil
}

// Delete removes the route for p, reporting whether it existed.
func (t *SequentialTable) Delete(p bits.Prefix) bool {
	t.gen++
	p = bits.MakePrefix(p.Addr, p.Len)
	for i := range t.entries {
		if t.entries[i].Prefix == p {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return true
		}
	}
	return false
}

// Lookup scans every entry and returns the longest matching prefix —
// exactly the work the TACO sequential forwarding program performs
// entry by entry.
func (t *SequentialTable) Lookup(addr bits.Word128) (Route, bool) {
	t.stats.Lookups++
	best := Route{}
	bestLen := -1
	for i := range t.entries {
		t.stats.Probes++
		if e := &t.entries[i]; e.Prefix.Contains(addr) && e.Prefix.Len > bestLen {
			best, bestLen = *e, e.Prefix.Len
		}
	}
	return best, bestLen >= 0
}

// Len returns the entry count.
func (t *SequentialTable) Len() int { return len(t.entries) }

// Routes returns the entries in deterministic (prefix-sorted) order.
func (t *SequentialTable) Routes() []Route {
	out := append([]Route(nil), t.entries...)
	sortRoutes(out)
	return out
}

// EntriesInStorageOrder exposes the raw array layout used by the TACO
// routing-table unit: the scan order of the hardware.
func (t *SequentialTable) EntriesInStorageOrder() []Route {
	return append([]Route(nil), t.entries...)
}

// EntryAt returns the i'th entry in storage order — the routing-table
// unit's entry-register load.
func (t *SequentialTable) EntryAt(i int) (Route, bool) {
	if i < 0 || i >= len(t.entries) {
		return Route{}, false
	}
	return t.entries[i], true
}

// Gen returns the mutation generation: any Insert/InsertAll/Delete
// changes it, so a cached lowering of the entries keyed on Gen stays
// coherent across control-plane updates.
func (t *SequentialTable) Gen() uint64 { return t.gen }

// Stats implements Table.
func (t *SequentialTable) Stats() Stats { return t.stats }

// ResetStats implements Table.
func (t *SequentialTable) ResetStats() { t.stats = Stats{} }

// MemDims implements MemSizer: one record per entry.
func (t *SequentialTable) MemDims() MemDims {
	return MemDims{Entries: len(t.entries), Regions: sequentialRegions(len(t.entries))}
}

func sequentialRegions(n int) []Region {
	return []Region{{Name: "entries", Records: n, Bits: seqEntryBits}}
}

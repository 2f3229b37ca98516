package rtable

// CompressedConfig parameterises the CRAM-style compressed trie: the
// same stride schedule as the multibit table, but each node stores its
// children as a 2^stride occupancy bitmap plus a rank-indexed compact
// array holding only the occupied slots — the Lulea/tree-bitmap idiom.
// The lookup path is bit-for-bit the multibit walk (same nodes, same
// probe counts); only the storage representation changes: one bit per
// expanded slot instead of a full pointer, which is where the
// CRAM-lens "scale IP lookup to large databases" headline comes from.
type CompressedConfig struct {
	Strides []int
}

// DefaultCompressedConfig mirrors the multibit reference schedule so
// the two backends are directly comparable probe-for-probe — and one
// default multibit build stands for both (Backends' Reprice).
func DefaultCompressedConfig() CompressedConfig {
	return CompressedConfig{Strides: append([]int(nil), DefaultMultibitStrides...)}
}

// Validate checks the stride schedule (same constraints as multibit).
func (c CompressedConfig) Validate() error {
	return MultibitConfig{Strides: c.Strides}.Validate()
}

// CompressedTable is the CRAM-style compressed routing table: the
// multibit-stride trie with bitmap-compressed child arrays — which is
// strideCore as is, so lookups visit exactly the nodes the multibit
// table visits (identical per-level probe histograms, a property the
// test wall pins) while MemDims reports the compressed storage.
type CompressedTable struct {
	strideCore
	cfg CompressedConfig
}

// NewCompressed returns an empty compressed trie; it panics on an
// invalid stride schedule (use CompressedConfig.Validate first).
func NewCompressed(cfg CompressedConfig) *CompressedTable {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &CompressedTable{cfg: cfg}
	t.setup(cfg.Strides)
	return t
}

// Kind implements Table.
func (t *CompressedTable) Kind() Kind { return Compressed }

// Config returns the stride schedule.
func (t *CompressedTable) Config() CompressedConfig { return t.cfg }

// MemDims implements MemSizer: per node one 2^stride occupancy bitmap
// (one bit for each slot the multibit table expands) and a fixed node
// record, plus only the occupied child records, the leaves and the
// next-hop records. The bitmap-to-children gap is the compression the
// estimation layer prices.
func (t *CompressedTable) MemDims() MemDims { return t.compressedDims() }

// compressedDims prices the trie as CompressedTable stores it, whichever
// of the two types built it: Backends reprices a multibit build with it.
func (c *strideCore) compressedDims() MemDims {
	nodes, slots := c.nodeTotals()
	return MemDims{Entries: c.count, Regions: []Region{
		{Name: "bitmaps", Records: slots, Bits: 1},
		{Name: "nodes", Records: nodes, Bits: compressedNodeBits},
		{Name: "children", Records: c.kidSlots, Bits: slotBits},
		{Name: "leaves", Records: c.leaves, Bits: leafBits},
		{Name: "results", Records: c.count, Bits: resultBits},
	}}
}

package rtable

// CompressedTable is the CRAM-style compressed routing table: the
// multibit-stride trie with bitmap-compressed child arrays — each node
// stores its children as a 2^stride occupancy bitmap plus a
// rank-indexed compact array holding only the occupied slots, the
// Lulea/tree-bitmap idiom. The walk is strideCore's as is, so lookups
// visit exactly the nodes the multibit table visits (identical
// per-level probe histograms, a property the test wall pins) while
// MemDims reports the compressed storage: one bit per expanded slot
// instead of a full pointer, which is where the CRAM-lens "scale IP
// lookup to large databases" headline comes from.
type CompressedTable struct {
	strideCore
	cfg MultibitConfig
}

// NewCompressed returns an empty compressed trie over a multibit stride
// schedule; it panics on an invalid one (use MultibitConfig.Validate
// first). With DefaultMultibitConfig the two backends are comparable
// probe for probe, and one default multibit build stands for both
// (Backends' Reprice).
func NewCompressed(cfg MultibitConfig) *CompressedTable {
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
func (t *CompressedTable) Config() MultibitConfig { return t.cfg }

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

package rtable

import "fmt"

// MultibitConfig parameterises the multibit-stride trie: Strides lists
// the number of address bits consumed per trie level, most significant
// first, and must sum to 128. Wider strides trade SRAM (each node
// models a 2^stride expanded slot array in hardware) for fewer memory
// accesses per lookup — the classic controlled-prefix-expansion /
// LC-trie trade-off that decides which organisation wins once the
// database grows past the paper's 100-entry constraint. The compressed
// trie (NewCompressed) walks the same schedule.
type MultibitConfig struct {
	Strides []int
}

// DefaultMultibitStrides is a 16-8-8-… schedule: one wide root level
// (IPv6 allocations share little structure above /16) followed by
// byte-sized strides down to /128. 15 levels total.
var DefaultMultibitStrides = []int{16, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}

// DefaultMultibitConfig returns the stride schedule used by rtable.New.
func DefaultMultibitConfig() MultibitConfig {
	return MultibitConfig{Strides: append([]int(nil), DefaultMultibitStrides...)}
}

// Validate checks the stride schedule.
func (c MultibitConfig) Validate() error {
	if len(c.Strides) == 0 {
		return fmt.Errorf("rtable: multibit config needs at least one stride")
	}
	sum := 0
	for i, s := range c.Strides {
		if s < 1 || s > 16 {
			return fmt.Errorf("rtable: multibit stride %d at level %d out of range 1..16", s, i)
		}
		sum += s
	}
	if sum != 128 {
		return fmt.Errorf("rtable: multibit strides sum to %d, want 128", sum)
	}
	return nil
}

// MultibitTable is a multibit-stride (LC-trie-style) routing table:
// fixed per-level strides, path-compressed single-route leaves, and
// per-level probe accounting. It is the scaling-study backend — not in
// the paper's Table 1, but the organisation related work (CRAM, MashUp)
// shows winning on 10⁵–10⁶ entry databases. Walk, updates and storage
// are strideCore's; this type adds the accounting of the hardware it
// stands for, a fully expanded 2^stride slot array per node.
type MultibitTable struct {
	strideCore
	cfg MultibitConfig
}

// NewMultibit returns an empty multibit trie; it panics on an invalid
// stride schedule (use MultibitConfig.Validate to check first).
func NewMultibit(cfg MultibitConfig) *MultibitTable {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &MultibitTable{cfg: cfg}
	t.setup(cfg.Strides)
	return t
}

// Kind implements Table.
func (t *MultibitTable) Kind() Kind { return Multibit }

// Config returns the stride schedule.
func (t *MultibitTable) Config() MultibitConfig { return t.cfg }

// MemDims implements MemSizer: the hardware footprint is one 2^stride
// slot array per allocated node plus the path-compressed leaf records
// and one next-hop record per route.
func (t *MultibitTable) MemDims() MemDims {
	_, slots := t.nodeTotals()
	return MemDims{Entries: t.count, Regions: []Region{
		{Name: "slots", Records: slots, Bits: slotBits},
		{Name: "leaves", Records: t.leaves, Bits: leafBits},
		{Name: "results", Records: t.count, Bits: resultBits},
	}}
}

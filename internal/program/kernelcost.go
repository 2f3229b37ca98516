package program

import "taco/internal/rtable"

// Per-probe cost factors for table kinds that have no generated TACO
// program yet, expressed relative to the balanced tree's per-node cost.
// The tree kernel compares the 128-bit destination against two 128-bit
// range bounds (up to eight 32-bit comparisons plus branches per node);
// the modelled kinds do strictly less transport work per probe:
const (
	// MultibitStepFactor: a multibit node visit is one expanded-slot
	// load (single RTU access), a shift+mask stride extraction and one
	// tag comparison — roughly the work of half a tree node's dual-bound
	// cascade.
	MultibitStepFactor = 0.45
	// BinaryTrieStepFactor: a binary trie step is a single-bit test and
	// child-pointer load, the cheapest possible probe.
	BinaryTrieStepFactor = 0.30
	// TiledTCAMStepFactor: an index-stage probe is a one-bit test plus a
	// node load (binary-trie cost); the final probe is the ternary block
	// search, a CAM-latency operation amortised over the few index steps.
	// Averaged over a lookup's probe mix the per-probe cost sits between
	// the binary trie and the multibit node.
	TiledTCAMStepFactor = 0.40
	// CompressedStepFactor: a compressed node visit is the multibit slot
	// load plus the bitmap word fetch and popcount-rank — slightly more
	// datapath work per probe than the expanded-array multibit node.
	CompressedStepFactor = 0.55
)

// ModelPerProbe converts a calibrated balanced-tree per-probe cycle
// cost into the modelled cost for a kind without a hardware RTU
// backend. ok is false for kinds that calibrate directly from their own
// generated kernel.
func ModelPerProbe(kind rtable.Kind, treePerProbe float64) (perProbe float64, ok bool) {
	switch kind {
	case rtable.Multibit:
		return treePerProbe * MultibitStepFactor, true
	case rtable.Trie:
		return treePerProbe * BinaryTrieStepFactor, true
	case rtable.TiledTCAM:
		return treePerProbe * TiledTCAMStepFactor, true
	case rtable.Compressed:
		return treePerProbe * CompressedStepFactor, true
	}
	return 0, false
}

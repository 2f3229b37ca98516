package rtable

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Backend is everything the repository knows about one table
// organisation beyond its Table implementation. Backends registers each
// one once; the parsers, the evaluators and the sweeps read it from
// there.
type Backend struct {
	Kind Kind
	// Name is the canonical name: Kind.String, JSON and KindByName.
	Name string
	// Aliases are the further names ParseKind accepts.
	Aliases []string
	// Label heads the organisation's rows in the Table 1 layout.
	Label string
	// New builds an empty table in the default configuration.
	New func() Table
	// Paper marks the organisations the paper evaluates: the only ones
	// with a routing-table unit and a forwarding kernel.
	Paper bool
	// LargeSweep marks the large-table sweep's default kinds.
	LargeSweep bool
	// AnalyticProbes, when set, is the probe count of one lookup at n
	// entries, known by construction (a sequential scan reads all n, a
	// CAM searches once); AnalyticRegions is then the storage at n
	// entries. The scaled evaluation prices such a backend without
	// building it.
	AnalyticProbes  func(n int) float64
	AnalyticRegions func(n int) []Region
	// StepFactor, for a backend with no forwarding kernel, is its
	// per-probe cycle cost relative to the balanced tree's, whose anchors
	// its scaled evaluation borrows.
	StepFactor float64
	// PricedFrom and Reprice, when Reprice is set, declare an
	// organisation that is another backend's structure stored another
	// way: a default PricedFrom table walks, probes and updates exactly
	// as a default table of this kind, and Reprice returns this kind's
	// MemDims of it. A sweep builds the structure once, as PricedFrom,
	// and prices it as both kinds (Kind.BuiltAs, Kind.Dims).
	PricedFrom Kind
	Reprice    func(Table) MemDims
}

// Backends lists every table organisation in Kind order. The step
// factors, against a tree node's dual 128-bit bound compare (up to eight
// 32-bit comparisons): a binary-trie step is a one-bit test and a pointer
// load; a multibit node a slot load, shift+mask and one tag compare; a
// tiled-TCAM probe mix index steps plus one amortised block search; a
// compressed node the multibit step plus a bitmap fetch and rank.
var Backends = []Backend{
	{Kind: Sequential, Name: "sequential", Aliases: []string{"seq"}, Label: "Sequential",
		New: func() Table { return NewSequential() }, Paper: true, LargeSweep: true,
		AnalyticProbes: func(n int) float64 { return float64(n) }, AnalyticRegions: sequentialRegions},
	{Kind: BalancedTree, Name: "balanced-tree", Aliases: []string{"tree", "balancedtree"}, Label: "Balanced tree",
		New: func() Table { return NewBalancedTree() }, Paper: true, LargeSweep: true},
	{Kind: CAM, Name: "cam", Label: "CAM",
		New: func() Table { return NewCAM(DefaultCAMConfig()) }, Paper: true, LargeSweep: true,
		AnalyticProbes: func(int) float64 { return 1 }, AnalyticRegions: camRegions},
	{Kind: Trie, Name: "trie", Label: "Binary trie",
		New: func() Table { return NewTrie() }, StepFactor: 0.30},
	{Kind: Multibit, Name: "multibit", Aliases: []string{"lctrie", "lc-trie"}, Label: "Multibit trie",
		New: func() Table { return NewMultibit(DefaultMultibitConfig()) }, LargeSweep: true, StepFactor: 0.45},
	{Kind: TiledTCAM, Name: "tiled-tcam", Aliases: []string{"tiledtcam", "tcam"}, Label: "Tiled TCAM",
		New: func() Table { return NewTiledTCAM(DefaultTiledTCAMConfig()) }, LargeSweep: true, StepFactor: 0.40},
	{Kind: Compressed, Name: "compressed", Aliases: []string{"cram"}, Label: "Compressed trie",
		New: func() Table { return NewCompressed(DefaultMultibitConfig()) }, LargeSweep: true, StepFactor: 0.55,
		PricedFrom: Multibit, Reprice: func(t Table) MemDims { return t.(*MultibitTable).compressedDims() }},
}

// Kinds lists every implementation: the paper's Table 1 order, then the
// extension backends.
var Kinds = KindsWhere(func(*Backend) bool { return true })

// PaperKinds lists the three implementations the paper evaluates — the
// columns of its Table 1 — in the paper's order.
var PaperKinds = KindsWhere(func(b *Backend) bool { return b.Paper })

// KindsWhere lists, in Kind order, the kinds whose backend satisfies keep.
func KindsWhere(keep func(*Backend) bool) []Kind {
	var kinds []Kind
	for i := range Backends {
		if keep(&Backends[i]) {
			kinds = append(kinds, Backends[i].Kind)
		}
	}
	return kinds
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(Backends) {
		return Backends[k].Name
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// New constructs an empty table of the given kind.
func New(k Kind) Table { return Backends[k].New() }

// BuiltAs returns the kind whose table is built to measure k: the
// backend whose structure k reprices, or k itself.
func (k Kind) BuiltAs() Kind {
	if Backends[k].Reprice != nil {
		return Backends[k].PricedFrom
	}
	return k
}

// Dims returns k's storage dimensions of tbl, a table of kind
// k.BuiltAs().
func (k Kind) Dims(tbl Table) MemDims {
	if f := Backends[k].Reprice; f != nil {
		return f(tbl)
	}
	return tbl.MemDims()
}

// Names returns the canonical names of kinds, in order.
func Names(kinds []Kind) []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return names
}

// KindNames returns every valid kind name, sorted — the vocabulary the
// parsers quote in errors.
func KindNames() []string {
	names := Names(Kinds)
	sort.Strings(names)
	return names
}

// KindByName parses a canonical kind name (the String form): the strict
// parser of JSON round-trips. Unknown names are rejected with the sorted
// list of valid names.
func KindByName(name string) (Kind, error) {
	for _, b := range Backends {
		if b.Name == name {
			return b.Kind, nil
		}
	}
	return 0, fmt.Errorf("rtable: unknown table kind %q (valid: %s)",
		name, strings.Join(KindNames(), " | "))
}

// ParseKind parses a kind name as users type it on a command line: a
// canonical name or an alias, in any case.
func ParseKind(name string) (Kind, error) {
	name = strings.ToLower(name)
	for _, b := range Backends {
		if slices.Contains(b.Aliases, name) {
			return b.Kind, nil
		}
	}
	return KindByName(name)
}

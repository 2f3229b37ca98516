package workload

import (
	"fmt"

	"taco/internal/bits"
	"taco/internal/rtable"
)

// LargeTableSpec parameterises large-database generation (10k–1M
// routes): a realistic IPv6 prefix-length distribution with allocation
// locality, the workload axis the paper's 100-entry constraint leaves
// unexplored.
type LargeTableSpec struct {
	Entries int
	Ifaces  int
	Seed    uint64
	// Allocations is the number of /32 provider blocks more-specific
	// prefixes nest under; 0 means Entries/16+1. Fewer blocks mean more
	// ancestor/descendant overlap — the hard case for LPM structures.
	Allocations int
}

// lengthWeight is one bucket of the empirical prefix-length mix.
type lengthWeight struct {
	Len, Weight int
}

// LargePrefixLengthWeights approximates the global IPv6 BGP table's
// prefix-length distribution: /48 deaggregates and /32 provider
// allocations dominate, with a tail of RIR-sized shorts and a few
// longer more-specifics.
var LargePrefixLengthWeights = []lengthWeight{
	{20, 1}, {24, 2}, {28, 2}, {29, 4}, {30, 2}, {31, 1},
	{32, 13}, {33, 2}, {34, 2}, {35, 1}, {36, 5}, {38, 2},
	{40, 7}, {42, 2}, {44, 8}, {46, 3}, {47, 2}, {48, 44},
	{56, 3}, {64, 3}, {128, 1},
}

// largeWeightTotal is the sum of LargePrefixLengthWeights' weights.
var largeWeightTotal = func() (n int) {
	for _, w := range LargePrefixLengthWeights {
		n += w.Weight
	}
	return n
}()

// pickLength draws a prefix length from LargePrefixLengthWeights.
func pickLength(rng *RNG) int {
	n := rng.Intn(largeWeightTotal)
	for _, w := range LargePrefixLengthWeights {
		if n < w.Weight {
			return w.Len
		}
		n -= w.Weight
	}
	return LargePrefixLengthWeights[len(LargePrefixLengthWeights)-1].Len
}

// GenerateLargeRoutes produces spec.Entries distinct routes in
// 2000::/4. Prefixes of /32 and longer nest under a pool of provider
// /32 blocks (allocation locality: shared high bits, dense subtrees);
// shorter prefixes are independent RIR-scale blocks. All destinations
// stay inside 2000::/4 — not merely 2000::/3, which would contain
// 3000::/4 — so 3000::/4 addresses are guaranteed misses; SampleDests
// relies on this to avoid O(n) miss verification.
func GenerateLargeRoutes(spec LargeTableSpec) []rtable.Route {
	if spec.Ifaces <= 0 {
		spec.Ifaces = 4
	}
	nAlloc := spec.Allocations
	if nAlloc <= 0 {
		nAlloc = spec.Entries/16 + 1
	}
	rng := NewRNG(spec.Seed)

	allocs := make([]bits.Word128, nAlloc)
	for i := range allocs {
		a := rng.Word128()
		a.Hi = a.Hi&^(uint64(0xf)<<60) | uint64(2)<<60 // 2000::/4
		allocs[i] = bits.MakePrefix(a, 32).Addr
	}

	seen := newPrefixSet(spec.Entries)
	routes := make([]rtable.Route, 0, spec.Entries)
	prefixAt := func(i int) bits.Prefix { return routes[i].Prefix }
	for len(routes) < spec.Entries {
		ln := pickLength(rng)
		var addr bits.Word128
		if ln >= 32 {
			// More-specific inside a provider block: keep the top 32
			// bits, randomise the rest up to the prefix length.
			base := allocs[rng.Intn(len(allocs))]
			sub := rng.Word128().And(bits.Mask(32).Not())
			addr = base.Or(sub)
		} else {
			addr = rng.Word128()
			addr.Hi = addr.Hi&^(uint64(0xf)<<60) | uint64(2)<<60
		}
		p := bits.MakePrefix(addr, ln)
		if !seen.add(p, len(routes), prefixAt) {
			continue
		}
		routes = append(routes, rtable.Route{
			Prefix:  p,
			NextHop: linkLocalNeighbor(rng),
			Iface:   rng.Intn(spec.Ifaces),
			Metric:  1 + rng.Intn(14),
		})
	}
	return routes
}

// SampleDests returns n lookup destinations for the given routes: a
// missRatio fraction are guaranteed misses in 3000::/4 (no per-sample
// table scan — valid only for tables confined to 2000::/4, as
// GenerateLargeRoutes produces; GenerateRoutes tables need the
// rejection-sampling missSpace instead), the rest are random hosts
// inside randomly chosen installed prefixes. This is the cheap
// probe-measurement workload for million-route tables, where building
// full datagrams and rejection-sampling misses would dominate runtime.
//
// Known defect, not fixed: GenerateChurn inserts fresh prefixes drawn
// from 2000::/3, which contains 3000::/4, so after a churn stream some
// of these "guaranteed" misses can match a churned-in route. Fixing the
// churn draw moves the pinned churn goldens, so it is left to a change
// of its own.
func SampleDests(routes []rtable.Route, n int, missRatio float64, seed uint64) []bits.Word128 {
	return SampleDestsAt(routes, nil, n, missRatio, seed)
}

// SampleDestsAt is SampleDests reading route i of the set as drawn at
// routes[at[i]] (routes[i] when at is nil): rtable.SortRoutesInPlace's
// index.
func SampleDestsAt(routes []rtable.Route, at []int32, n int, missRatio float64, seed uint64) []bits.Word128 {
	rng := NewRNG(seed ^ 0xd0d0)
	out := make([]bits.Word128, n)
	for i := range out {
		if len(routes) == 0 || rng.Float64() < missRatio {
			a := rng.Word128()
			a.Hi = a.Hi&^(uint64(0xf)<<60) | uint64(3)<<60 // 3000::/4
			out[i] = a
			continue
		}
		j := rng.Intn(len(routes))
		if at != nil {
			j = int(at[j])
		}
		out[i] = AddrInPrefix(rng, routes[j].Prefix)
	}
	return out
}

// ChurnOpKind is one update-stream operation type.
type ChurnOpKind int

const (
	// ChurnInsert adds a new prefix.
	ChurnInsert ChurnOpKind = iota
	// ChurnDelete withdraws a live prefix.
	ChurnDelete
	// ChurnReplace re-announces a live prefix with new attributes
	// (next hop / interface / metric), the most common BGP/RIPng event.
	ChurnReplace
)

func (k ChurnOpKind) String() string {
	switch k {
	case ChurnInsert:
		return "insert"
	case ChurnDelete:
		return "delete"
	case ChurnReplace:
		return "replace"
	}
	return fmt.Sprintf("ChurnOpKind(%d)", int(k))
}

// ChurnOp is one routing update.
type ChurnOp struct {
	Op    ChurnOpKind
	Route rtable.Route
}

// ChurnSpec parameterises update-stream generation.
type ChurnSpec struct {
	Ops    int
	Seed   uint64
	Ifaces int
}

// The churn mix: insertFrac of the ops are inserts, deleteFrac deletes,
// the remainder replaces.
const (
	insertFrac float64 = 0.4
	deleteFrac float64 = 0.3
)

// GenerateChurn produces a deterministic update stream against the
// given base table: inserts of fresh prefixes, deletes and replaces of
// routes live at that point in the stream (so every delete hits and
// every replace changes an installed route). Ops ≤ 0 gives an empty
// stream.
//
// Known defect, not fixed: fresh prefixes are drawn from 2000::/3, not
// the 2000::/4 GenerateLargeRoutes keeps to, so an insert can land in
// the 3000::/4 region SampleDests treats as guaranteed misses.
// Confining the draw would move testdata/largetable's churn goldens.
func GenerateChurn(base []rtable.Route, spec ChurnSpec) []ChurnOp {
	return GenerateChurnAt(base, nil, spec)
}

// GenerateChurnAt is GenerateChurn reading route i of the base as
// drawn at base[at[i]] (base[i] when at is nil). Its live set is a
// swap-removed list of references, never a copy of the base: r ≥ 0 is
// base[r], r < 0 the route of ops[^r], the op that inserted or last
// replaced it. A flat prefix set, sized once for every route the stream
// could add, indexes the list by prefix.
func GenerateChurnAt(base []rtable.Route, at []int32, spec ChurnSpec) []ChurnOp {
	ifaces := spec.Ifaces
	if ifaces <= 0 {
		ifaces = 4
	}
	spec.Ops = max(spec.Ops, 0)
	rng := NewRNG(spec.Seed ^ 0xc4c4)

	live := make([]int32, len(base), len(base)+spec.Ops)
	for i := range live {
		live[i] = int32(i)
	}
	if at != nil {
		copy(live, at)
	}
	ops := make([]ChurnOp, 0, spec.Ops)
	route := func(i int) *rtable.Route {
		if r := live[i]; r < 0 {
			return &ops[^r].Route
		}
		return &base[live[i]]
	}
	prefixAt := func(i int) bits.Prefix { return route(i).Prefix }
	idx := newPrefixSet(len(live) + spec.Ops)
	for i := range live {
		idx.set(prefixAt(i), i, prefixAt)
	}
	removeAt := func(i int) {
		idx.del(prefixAt(i), prefixAt)
		last := len(live) - 1
		if i != last {
			idx.set(prefixAt(last), i, prefixAt)
			live[i] = live[last]
		}
		live = live[:last]
	}

	for len(ops) < spec.Ops {
		roll := rng.Float64()
		switch {
		case roll < insertFrac || len(live) == 0:
			ln := pickLength(rng)
			addr := rng.Word128()
			addr.Hi = addr.Hi&^(uint64(7)<<61) | uint64(1)<<61
			p := bits.MakePrefix(addr, ln)
			if !idx.add(p, len(live), prefixAt) {
				continue
			}
			live = append(live, ^int32(len(ops)))
			ops = append(ops, ChurnOp{Op: ChurnInsert, Route: rtable.Route{
				Prefix:  p,
				NextHop: linkLocalNeighbor(rng),
				Iface:   rng.Intn(ifaces),
				Metric:  1 + rng.Intn(14),
			}})
		case roll < insertFrac+deleteFrac:
			i := rng.Intn(len(live))
			ops = append(ops, ChurnOp{Op: ChurnDelete, Route: *route(i)})
			removeAt(i)
		default:
			i := rng.Intn(len(live))
			r := *route(i)
			r.NextHop = linkLocalNeighbor(rng)
			r.Iface = rng.Intn(ifaces)
			r.Metric = 1 + rng.Intn(14)
			live[i] = ^int32(len(ops))
			ops = append(ops, ChurnOp{Op: ChurnReplace, Route: r})
		}
	}
	return ops
}

// ApplyChurn plays an update stream into a table: inserts and replaces
// via Insert, deletes via Delete. It returns the number of delete ops
// that found their prefix (for cross-backend agreement checks).
func ApplyChurn(tbl rtable.Table, ops []ChurnOp) (deleted int, err error) {
	for _, op := range ops {
		switch op.Op {
		case ChurnDelete:
			if tbl.Delete(op.Route.Prefix) {
				deleted++
			}
		default:
			if err := tbl.Insert(op.Route); err != nil {
				return deleted, fmt.Errorf("workload: churn insert: %w", err)
			}
		}
	}
	return deleted, nil
}

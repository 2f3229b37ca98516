package bits

import (
	"fmt"
	"slices"
)

// Prefix is a 128-bit address prefix: the top Len bits of Addr are
// significant; the rest are zero in a canonical prefix.
type Prefix struct {
	Addr Word128
	Len  int // 0..128
}

// MakePrefix canonicalises (addr, n) by masking away host bits.
func MakePrefix(addr Word128, n int) Prefix {
	if n < 0 {
		n = 0
	}
	if n > 128 {
		n = 128
	}
	return Prefix{Addr: addr.And(Mask(n)), Len: n}
}

// Contains reports whether addr falls inside p.
func (p Prefix) Contains(addr Word128) bool {
	return addr.And(Mask(p.Len)) == p.Addr
}

// First returns the lowest address in p (the prefix value itself).
func (p Prefix) First() Word128 { return p.Addr }

// Last returns the highest address in p.
func (p Prefix) Last() Word128 { return p.Addr.Or(Mask(p.Len).Not()) }

// Overlaps reports whether p and q share any address; for prefixes this
// happens exactly when one contains the other's base address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q.Addr) || q.Contains(p.Addr)
}

// Cmp orders prefixes by address, then length: an enclosing prefix
// sorts before the prefixes nested at its base address.
func (p Prefix) Cmp(q Prefix) int {
	if c := p.Addr.Cmp(q.Addr); c != 0 {
		return c
	}
	return p.Len - q.Len
}

// String formats p as <hex>/<len>.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Len) }

// Range is a closed interval of 128-bit addresses.
type Range struct {
	First, Last Word128
}

// Contains reports whether addr lies inside r.
func (r Range) Contains(addr Word128) bool {
	return r.First.Cmp(addr) <= 0 && addr.Cmp(r.Last) <= 0
}

// String formats r as [first,last].
func (r Range) String() string { return fmt.Sprintf("[%s,%s]", r.First, r.Last) }

// RangeOwner pairs a disjoint address range with the index (into the
// original prefix slice) of the longest prefix covering it, or -1 when no
// prefix covers the range.
type RangeOwner struct {
	Range Range
	Owner int
}

// DisjointRanges flattens a prefix set into the sorted, disjoint address
// ranges it induces, each labelled with the index of its longest (i.e.
// innermost) covering prefix. Ranges with no covering prefix are
// omitted. This is the classic "binary search on ranges" transformation
// used by the balanced-tree routing table: a longest-prefix match over
// the prefixes becomes a point location over the ranges.
//
// Prefix address sets form a laminar family — any two prefixes are
// either disjoint or nested — so one sort and a single sweep with a
// nesting stack suffice.
func DisjointRanges(prefixes []Prefix) []RangeOwner {
	n := len(prefixes)
	if n == 0 {
		return nil
	}
	// Sweep order is Cmp's: address, then outer (shorter) before inner.
	// The balanced tree's prefixes arrive in it and need no index
	// permutation; other input is swept through a sorted one.
	var idx []int
	if !slices.IsSortedFunc(prefixes, Prefix.Cmp) {
		idx = make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int { return prefixes[a].Cmp(prefixes[b]) })
	}

	type active struct {
		owner int
		last  Word128
	}
	var (
		stack     []active
		out       = make([]RangeOwner, 0, 2*n) // at most 2n-1 ranges
		pos       Word128                      // next address not yet assigned to a range
		posSet    bool
		saturated bool // pos has run past Max128
	)
	emit := func(from, to Word128, owner int) {
		if to.Less(from) {
			return
		}
		out = append(out, RangeOwner{Range: Range{First: from, Last: to}, Owner: owner})
	}
	// segStart returns where the next segment of an active prefix begins.
	segStart := func(a active) Word128 {
		start := prefixes[a.owner].First()
		if posSet && start.Less(pos) {
			start = pos
		}
		return start
	}
	bump := func(last Word128) {
		if last == Max128 {
			saturated = true
		} else {
			pos = last.AddOne()
		}
		posSet = true
	}

	for k := range prefixes {
		id := k
		if idx != nil {
			id = idx[k]
		}
		p := prefixes[id]
		first, last := p.First(), p.Last()
		// Close every active prefix that ends before this one starts.
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if !top.last.Less(first) {
				break
			}
			if !saturated {
				emit(segStart(top), top.last, top.owner)
			}
			bump(top.last)
			stack = stack[:len(stack)-1]
		}
		// The enclosing prefix owns the gap up to this one's start.
		if len(stack) > 0 && !saturated {
			top := stack[len(stack)-1]
			if start := segStart(top); start.Less(first) {
				emit(start, first.SubOne(), top.owner)
			}
		}
		if !posSet || pos.Less(first) {
			pos, posSet, saturated = first, true, false
		}
		stack = append(stack, active{owner: id, last: last})
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !saturated {
			emit(segStart(top), top.last, top.owner)
		}
		bump(top.last)
	}
	return out
}

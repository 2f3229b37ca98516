package bits

import "fmt"

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

// DisjointRanges sweeps a set of n prefixes, read through prefix in
// Cmp order (address, then outer before inner), into the sorted,
// disjoint address ranges it induces, each labelled with the index of
// its longest (i.e. innermost) covering prefix. It hands them to emit
// in address order and returns how many there are; a nil emit only
// counts them. Ranges with no covering prefix are omitted. This is the
// classic "binary search on ranges" transformation used by the
// balanced-tree routing table: a longest-prefix match over the
// prefixes becomes a point location over the ranges. The accessor and
// the callback let a caller sweep the prefixes where they already live
// (the tree's route array) and write each range where it belongs (the
// tree's node array), so nothing is copied out in between.
//
// Prefix address sets form a laminar family — any two prefixes are
// either disjoint or nested — so in Cmp order one sweep with a nesting
// stack suffices. There are up to 2n-1 ranges, ~1.7n for a generated
// table.
func DisjointRanges(n int, prefix func(i int) Prefix, emit func(r Range, owner int)) int {
	type active struct {
		owner       int
		first, last Word128
	}
	var (
		buf       [129]active // a chain of distinct nested prefixes is at most 129 deep
		stack     = buf[:0]
		count     int
		pos       Word128 // next address not yet assigned to a range
		posSet    bool
		saturated bool // pos has run past Max128
	)
	put := func(from, to Word128, owner int) {
		if to.Less(from) {
			return
		}
		if emit != nil {
			emit(Range{First: from, Last: to}, owner)
		}
		count++
	}
	// segStart returns where the next segment of an active prefix begins.
	segStart := func(a active) Word128 {
		if posSet && a.first.Less(pos) {
			return pos
		}
		return a.first
	}
	bump := func(last Word128) {
		if last == Max128 {
			saturated = true
		} else {
			pos = last.AddOne()
		}
		posSet = true
	}

	for id := 0; id < n; id++ {
		p := prefix(id)
		first, last := p.First(), p.Last()
		// Close every active prefix that ends before this one starts.
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if !top.last.Less(first) {
				break
			}
			if !saturated {
				put(segStart(top), top.last, top.owner)
			}
			bump(top.last)
			stack = stack[:len(stack)-1]
		}
		// The enclosing prefix owns the gap up to this one's start.
		if len(stack) > 0 && !saturated {
			top := stack[len(stack)-1]
			if start := segStart(top); start.Less(first) {
				put(start, first.SubOne(), top.owner)
			}
		}
		if !posSet || pos.Less(first) {
			pos, posSet, saturated = first, true, false
		}
		stack = append(stack, active{owner: id, first: first, last: last})
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !saturated {
			put(segStart(top), top.last, top.owner)
		}
		bump(top.last)
	}
	return count
}

package workload

import (
	"taco/internal/bits"
	"taco/internal/rtable"
)

// prefixSet is the generators' dedup: an open-addressed, linearly
// probed set over the prefixes of the route list being built. A slot
// holds a 32-bit hash tag beside the route's index plus one (0 marks an
// empty slot), so a probe reads a route only when the tags agree.
type prefixSet struct {
	slots []uint64 // tag<<32 | index+1
}

// newPrefixSet returns a set for at most n prefixes: sized for them at
// half load or less, it never grows.
func newPrefixSet(n int) prefixSet {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return prefixSet{slots: make([]uint64, size)}
}

// add reports whether p is the prefix of none of routes and, when it is
// new, records it at index len(routes), where the caller appends it.
func (s prefixSet) add(p bits.Prefix, routes []rtable.Route) bool {
	h := mix64(p.Addr.Hi ^ mix64(p.Addr.Lo^uint64(p.Len)))
	tag := h >> 32
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := s.slots[i]
		if slot == 0 {
			s.slots[i] = tag<<32 | uint64(len(routes)+1)
			return true
		}
		if slot>>32 == tag && routes[uint32(slot)-1].Prefix == p {
			return false
		}
	}
}

// mix64 is the murmur3 64-bit finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

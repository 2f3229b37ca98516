package workload

import "taco/internal/bits"

// prefixSet is the generators' prefix index: an open-addressed,
// linearly probed map from the prefixes of a route list to their
// positions in it, the list read through prefixAt (the prefix of the
// route at index i). A slot holds the low 32 bits of the prefix's hash
// beside the route's index plus one (0 marks an empty slot): a probe
// reads a route only when the hash bits agree, and a removal finds each
// later slot's home without reading its route.
type prefixSet struct {
	slots []uint64 // hash<<32 | index+1
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

// prefixHash is the low 32 bits of p's hash; they pick its home slot.
func prefixHash(p bits.Prefix) uint64 {
	return mix64(p.Addr.Hi^mix64(p.Addr.Lo^uint64(p.Len))) & (1<<32 - 1)
}

// find returns the slot holding p, or the empty slot where p would go;
// h is prefixHash(p).
func (s prefixSet) find(h uint64, p bits.Prefix, prefixAt func(int) bits.Prefix) (i int, found bool) {
	mask := len(s.slots) - 1
	for i = int(h) & mask; ; i = (i + 1) & mask {
		slot := s.slots[i]
		if slot == 0 {
			return i, false
		}
		if slot>>32 == h && prefixAt(int(uint32(slot)-1)) == p {
			return i, true
		}
	}
}

// add reports whether p is the prefix of no listed route and, when it
// is new, records it at index at, where the caller puts it.
func (s prefixSet) add(p bits.Prefix, at int, prefixAt func(int) bits.Prefix) bool {
	h := prefixHash(p)
	i, found := s.find(h, p, prefixAt)
	if !found {
		s.slots[i] = h<<32 | uint64(at+1)
	}
	return !found
}

// set records p at index at, in its slot or a new one.
func (s prefixSet) set(p bits.Prefix, at int, prefixAt func(int) bits.Prefix) {
	h := prefixHash(p)
	i, _ := s.find(h, p, prefixAt)
	s.slots[i] = h<<32 | uint64(at+1)
}

// del removes p if it is there. Later slots of the probe run shift back
// into the hole, each as far as its home allows, so no probe ever
// stops short of its key at an emptied slot.
func (s prefixSet) del(p bits.Prefix, prefixAt func(int) bits.Prefix) {
	i, found := s.find(prefixHash(p), p, prefixAt)
	if !found {
		return
	}
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole at i unless its home lies in
		// (i, j].
		if home := int(s.slots[j]>>32) & mask; (j-home)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
}

// mix64 is the murmur3 64-bit finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

package fu

import (
	"encoding/binary"
	"fmt"

	"taco/internal/tta"
)

// MMU is the memory management unit of Figure 2: the interface between
// the interconnection network and the processor's data memory, which
// holds the datagrams under processing. The memory is word-addressed
// (32-bit words) and single-ported: one read or write per cycle.
//
// Sockets:
//
//	ow (operand)  data word for the next write
//	tr (trigger)  read: value = word address; r holds mem[addr] next cycle
//	tw (trigger)  write: value = word address; mem[addr] = ow
//	r  (result)   the last read word
type MMU struct {
	tta.PortTable
	// pages backs the memory in pageWords-word pages, each allocated on
	// its first write; a nil page reads as power-on zero. A machine
	// touches only its datagram slots, so most of the 2¹⁶-word default
	// memory is never allocated.
	pages []*[pageWords]uint32
	// span has one zero-size element per configured word: Words() is its
	// length, and indexing it bounds-checks an address (Peek) with
	// exactly the panic a flat []uint32 of that size would raise.
	span   []struct{}
	ow     latch
	tr, tw trigger
	r      uint32

	// hw is the high-water mark: one past the highest word ever written
	// since the last Reset. Words at or above hw are still power-on zero,
	// so Reset only has to clear the pages below hw — the datagram slots
	// actually used — and keeps them allocated for the next batch.
	hw int
}

const (
	pageShift = 8
	pageWords = 1 << pageShift
)

// NewMMU returns a memory of the given word count.
func NewMMU(name string, words int) *MMU {
	m := &MMU{
		pages: make([]*[pageWords]uint32, (words+pageWords-1)/pageWords),
		span:  make([]struct{}, words),
	}
	m.PortTable = tta.PortTable{
		Name:    name,
		Sockets: []tta.Port{operand("ow", &m.ow), trig("tr", &m.tr), trig("tw", &m.tw), result("r", &m.r)},
		// Memory traffic happens only on triggered cycles; the DMA
		// backdoors (StoreBytes, LoadBytes) bypass Clock entirely.
		Clocking: tta.ClockOnWrite,
		// The data-memory port: its triggers stay in program order with
		// the DMA units'.
		Hazard: "dmem",
	}
	return m
}

// word reads an in-range address.
func (m *MMU) word(addr int) uint32 {
	if p := m.pages[addr>>pageShift]; p != nil {
		return p[addr&(pageWords-1)]
	}
	return 0
}

// set writes an in-range address, allocating its page on the first
// write. It does not move hw; callers do.
func (m *MMU) set(addr int, v uint32) {
	p := m.pages[addr>>pageShift]
	if p == nil {
		p = new([pageWords]uint32)
		m.pages[addr>>pageShift] = p
	}
	p[addr&(pageWords-1)] = v
}

func (m *MMU) Clock(int64) error {
	m.ow.clock()
	rAddr, rOK := m.tr.take()
	wAddr, wOK := m.tw.take()
	if rOK && wOK {
		return fmt.Errorf("fu: mmu read and write triggered in the same cycle (single-ported)")
	}
	if rOK {
		if int(rAddr) >= m.Words() {
			return fmt.Errorf("fu: mmu read past memory: address %d of %d", rAddr, m.Words())
		}
		m.r = m.word(int(rAddr))
	}
	if wOK {
		if int(wAddr) >= m.Words() {
			return fmt.Errorf("fu: mmu write past memory: address %d of %d", wAddr, m.Words())
		}
		m.set(int(wAddr), m.ow.cur)
		if int(wAddr) >= m.hw {
			m.hw = int(wAddr) + 1
		}
	}
	return nil
}
func (m *MMU) Reset() {
	for _, p := range m.pages[:(m.hw+pageWords-1)/pageWords] {
		if p != nil {
			clear(p[:])
		}
	}
	m.hw = 0
	m.ow.reset()
	m.tr.reset()
	m.tw.reset()
	m.r = 0
}

// Words returns the memory size.
func (m *MMU) Words() int { return len(m.span) }

// Peek reads a word directly (backdoor for DMA units and tests). An
// out-of-range address panics.
func (m *MMU) Peek(addr int) uint32 {
	_ = m.span[addr]
	return m.word(addr)
}

// StoreBytes packs big-endian bytes into memory starting at word addr,
// zero-padding the final word, and returns the number of words used.
// It is the DMA path used by the preprocessing unit.
func (m *MMU) StoreBytes(addr int, data []byte) (int, error) {
	words := (len(data) + 3) / 4
	if addr < 0 || addr+words > m.Words() {
		return 0, fmt.Errorf("fu: mmu store of %d words at %d overflows %d-word memory",
			words, addr, m.Words())
	}
	full := len(data) / 4
	for w := 0; w < full; w++ {
		m.set(addr+w, binary.BigEndian.Uint32(data[w*4:]))
	}
	if rem := len(data) & 3; rem != 0 {
		var v uint32
		for b := 0; b < rem; b++ {
			v |= uint32(data[full*4+b]) << (24 - 8*b)
		}
		m.set(addr+full, v)
	}
	if addr+words > m.hw {
		m.hw = addr + words
	}
	return words, nil
}

// LoadBytes unpacks n big-endian bytes starting at word addr — the DMA
// path used by the postprocessing unit.
func (m *MMU) LoadBytes(addr, n int) ([]byte, error) {
	words := (n + 3) / 4
	if addr < 0 || addr+words > m.Words() {
		return nil, fmt.Errorf("fu: mmu load of %d words at %d overflows %d-word memory",
			words, addr, m.Words())
	}
	out := make([]byte, words*4)
	for w := 0; w < words; w++ {
		binary.BigEndian.PutUint32(out[w*4:], m.word(addr+w))
	}
	return out[:n], nil
}

package fu

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
)

// flatMMU is the reference the paged MMU must be indistinguishable
// from: the whole memory as one zeroed []uint32, with the same socket
// semantics (ow latched at Clock, one of tr/tw per cycle) and the same
// error texts.
type flatMMU struct {
	mem []uint32
	ow  uint32
	r   uint32
}

func (f *flatMMU) clock(ow uint32, owSet bool, rAddr uint32, rOK bool, wAddr uint32, wOK bool) error {
	if owSet {
		f.ow = ow
	}
	if rOK && wOK {
		return fmt.Errorf("fu: mmu read and write triggered in the same cycle (single-ported)")
	}
	if rOK {
		if int(rAddr) >= len(f.mem) {
			return fmt.Errorf("fu: mmu read past memory: address %d of %d", rAddr, len(f.mem))
		}
		f.r = f.mem[rAddr]
	}
	if wOK {
		if int(wAddr) >= len(f.mem) {
			return fmt.Errorf("fu: mmu write past memory: address %d of %d", wAddr, len(f.mem))
		}
		f.mem[wAddr] = f.ow
	}
	return nil
}

func (f *flatMMU) storeBytes(addr int, data []byte) (int, error) {
	words := (len(data) + 3) / 4
	if addr < 0 || addr+words > len(f.mem) {
		return 0, fmt.Errorf("fu: mmu store of %d words at %d overflows %d-word memory",
			words, addr, len(f.mem))
	}
	padded := make([]byte, words*4)
	copy(padded, data)
	for w := 0; w < words; w++ {
		f.mem[addr+w] = binary.BigEndian.Uint32(padded[w*4:])
	}
	return words, nil
}

func (f *flatMMU) loadBytes(addr, n int) ([]byte, error) {
	words := (n + 3) / 4
	if addr < 0 || addr+words > len(f.mem) {
		return nil, fmt.Errorf("fu: mmu load of %d words at %d overflows %d-word memory",
			words, addr, len(f.mem))
	}
	out := make([]byte, words*4)
	for w := 0; w < words; w++ {
		binary.BigEndian.PutUint32(out[w*4:], f.mem[addr+w])
	}
	return out[:n], nil
}

func (f *flatMMU) reset() {
	clear(f.mem)
	f.ow, f.r = 0, 0
}

// panicText runs fn and returns what it panicked with, or "" if it
// returned normally.
func panicText(fn func()) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestPagedMMUMatchesFlat drives the paged MMU and the flat reference
// through the same seeded sequences of Clock read/write triggers, DMA
// stores and loads, Peeks and Resets, with addresses clustered at page
// edges, the high-water mark and the end of memory. Every value, error
// and out-of-range Peek panic must be identical.
func TestPagedMMUMatchesFlat(t *testing.T) {
	for _, words := range []int{1 << 16, 1000, pageWords, 1} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("words=%d/seed=%d", words, seed), func(t *testing.T) {
				checkPagedMMU(t, words, seed)
			})
		}
	}
}

func checkPagedMMU(t *testing.T, words int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, uint64(words)))
	m := NewMMU("mmu", words)
	f := &flatMMU{mem: make([]uint32, words)}
	if m.Words() != words {
		t.Fatalf("Words() = %d, want %d", m.Words(), words)
	}
	hw := 0 // the reference's own high-water mark, to aim addresses at
	addr := func() int {
		switch rng.IntN(6) {
		case 0: // a page edge
			return rng.IntN(words/pageWords+2)*pageWords + rng.IntN(3) - 1
		case 1: // around the high-water mark
			return hw + rng.IntN(3) - 1
		case 2: // the end of memory
			return words + rng.IntN(3) - 2
		default:
			return rng.IntN(words)
		}
	}
	write := func(local int, v uint32) { // a move into socket local
		p := &m.Sockets[local]
		*p.Val, *p.Armed = v, true
	}
	value := func() uint32 {
		if rng.IntN(4) == 0 {
			return 0
		}
		return rng.Uint32()
	}
	probe := func(op int, a int) {
		for _, p := range []int{a - 1, a, a + 1} {
			want := panicText(func() { _ = f.mem[p] })
			got := panicText(func() { _ = m.Peek(p) })
			if got != want {
				t.Fatalf("op %d: Peek(%d) panic %q, flat %q", op, p, got, want)
			}
			if want == "" && m.Peek(p) != f.mem[p] {
				t.Fatalf("op %d: Peek(%d) = %#x, flat %#x", op, p, m.Peek(p), f.mem[p])
			}
		}
	}
	for op := 0; op < 3000; op++ {
		a := addr()
		switch k := rng.IntN(10); {
		case k < 5: // one clocked cycle: any mix of ow, tr, tw
			ow, owSet := value(), rng.IntN(2) == 0
			rOK, wOK := rng.IntN(2) == 0, rng.IntN(2) == 0
			if rng.IntN(8) != 0 && rOK && wOK {
				rOK = false // mostly legal cycles, some single-port faults
			}
			rAddr, wAddr := uint32(addr()), uint32(a)
			if owSet {
				write(0, ow)
			}
			if rOK {
				write(1, rAddr)
			}
			if wOK {
				write(2, wAddr)
			}
			got, want := errText(m.Clock(int64(op))), errText(f.clock(ow, owSet, rAddr, rOK, wAddr, wOK))
			if got != want {
				t.Fatalf("op %d: Clock error %q, flat %q", op, got, want)
			}
			if r := *m.Sockets[3].Reg; r != f.r {
				t.Fatalf("op %d: r = %#x, flat %#x", op, r, f.r)
			}
			if want == "" && wOK && int(wAddr)+1 > hw {
				hw = int(wAddr) + 1
			}
		case k < 7: // DMA store
			data := make([]byte, rng.IntN(3*pageWords))
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			gn, gerr := m.StoreBytes(a, data)
			wn, werr := f.storeBytes(a, data)
			if gn != wn || errText(gerr) != errText(werr) {
				t.Fatalf("op %d: StoreBytes(%d, %d B) = %d, %v; flat %d, %v", op, a, len(data), gn, gerr, wn, werr)
			}
			if werr == nil && a+wn > hw {
				hw = a + wn
			}
		case k < 9: // DMA load
			n := rng.IntN(3 * pageWords)
			got, gerr := m.LoadBytes(a, n)
			want, werr := f.loadBytes(a, n)
			if string(got) != string(want) || errText(gerr) != errText(werr) {
				t.Fatalf("op %d: LoadBytes(%d, %d) = %x, %v; flat %x, %v", op, a, n, got, gerr, want, werr)
			}
		default:
			m.Reset()
			f.reset()
			hw = 0
		}
		probe(op, a)
		if op%500 == 0 {
			for i := 0; i < words; i++ {
				if m.Peek(i) != f.mem[i] {
					t.Fatalf("op %d: word %d = %#x, flat %#x", op, i, m.Peek(i), f.mem[i])
				}
			}
		}
	}
}

// TestNewMMUAllocatesLittle pins the point of paging: a fresh 2¹⁶-word
// memory costs its page table, not 256 KB of zeroed words.
func TestNewMMUAllocatesLittle(t *testing.T) {
	const n = 64
	keep := make([]*MMU, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewMMU("mmu", 1<<16)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 4096 {
		t.Fatalf("NewMMU(1<<16) allocates %d bytes, want < 4096", per)
	}
	runtime.KeepAlive(keep)
}

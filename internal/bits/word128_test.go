package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromWordsRoundTrip(t *testing.T) {
	w := FromWords(0x20010db8, 0x0000cafe, 0xdeadbeef, 0x00000001)
	ws := w.Words()
	if ws != [4]uint32{0x20010db8, 0x0000cafe, 0xdeadbeef, 0x00000001} {
		t.Fatalf("Words() = %x", ws)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	w := Word128{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	b := w.Bytes()
	got, err := FromBytes(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("FromBytes(Bytes()) = %v, want %v", got, w)
	}
	if _, err := FromBytes(make([]byte, 15)); err == nil {
		t.Error("FromBytes accepted 15 bytes")
	}
}

func TestCmp(t *testing.T) {
	cases := []struct {
		a, b Word128
		want int
	}{
		{Word128{0, 0}, Word128{0, 0}, 0},
		{Word128{0, 1}, Word128{0, 2}, -1},
		{Word128{1, 0}, Word128{0, ^uint64(0)}, 1},
		{Max128, Zero128, 1},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Cmp(c.a); got != -c.want {
			t.Errorf("Cmp(%v,%v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestAddSubCarry(t *testing.T) {
	one := FromUint64(1)
	if s, c := Max128.Add(one); s != Zero128 || c != 1 {
		t.Errorf("Max+1 = %v carry %d", s, c)
	}
	if d, b := Zero128.Sub(one); d != Max128 || b != 1 {
		t.Errorf("0-1 = %v borrow %d", d, b)
	}
	// Carry propagation across the 64-bit boundary.
	w := Word128{Hi: 0, Lo: ^uint64(0)}
	if s, c := w.Add(one); (s != Word128{Hi: 1, Lo: 0}) || c != 0 {
		t.Errorf("lo-overflow add = %v carry %d", s, c)
	}
	if d, b := (Word128{Hi: 1, Lo: 0}).Sub(one); (d != Word128{Hi: 0, Lo: ^uint64(0)}) || b != 0 {
		t.Errorf("hi-borrow sub = %v borrow %d", d, b)
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a := Word128{aHi, aLo}
		b := Word128{bHi, bLo}
		s, _ := a.Add(b)
		d, _ := s.Sub(b)
		return d == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShifts(t *testing.T) {
	w := Word128{Hi: 0x8000000000000000, Lo: 1}
	if got := w.Shl(1); (got != Word128{Hi: 0, Lo: 2}) {
		t.Errorf("Shl(1) = %v", got)
	}
	if got := w.Shr(1); (got != Word128{Hi: 0x4000000000000000, Lo: 0}) {
		t.Errorf("Shr(1) = %v", got)
	}
	if got := (Word128{Hi: 1, Lo: 0}).Shr(1); (got != Word128{Hi: 0, Lo: 1 << 63}) {
		t.Errorf("Shr across boundary = %v", got)
	}
	if got := FromUint64(1).Shl(64); (got != Word128{Hi: 1, Lo: 0}) {
		t.Errorf("Shl(64) = %v", got)
	}
	if got := (Word128{Hi: 1, Lo: 0}).Shr(64); got != FromUint64(1) {
		t.Errorf("Shr(64) = %v", got)
	}
	if got := Max128.Shl(128); !got.IsZero() {
		t.Errorf("Shl(128) = %v", got)
	}
	if got := Max128.Shr(200); !got.IsZero() {
		t.Errorf("Shr(200) = %v", got)
	}
	if got := Max128.Shl(0); got != Max128 {
		t.Errorf("Shl(0) = %v", got)
	}
}

func TestShiftInverseProperty(t *testing.T) {
	f := func(hi, lo uint64, nRaw uint8) bool {
		n := uint(nRaw % 128)
		w := Word128{hi, lo}
		// Shifting left then right keeps the low 128-n bits.
		keep := w.And(Max128.Shr(n))
		return w.Shl(n).Shr(n) == keep
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMask(t *testing.T) {
	if Mask(0) != Zero128 {
		t.Error("Mask(0) != 0")
	}
	if Mask(128) != Max128 {
		t.Error("Mask(128) != all ones")
	}
	if got := Mask(64); (got != Word128{Hi: ^uint64(0), Lo: 0}) {
		t.Errorf("Mask(64) = %v", got)
	}
	if got := Mask(1); (got != Word128{Hi: 1 << 63, Lo: 0}) {
		t.Errorf("Mask(1) = %v", got)
	}
	// Clamping.
	if Mask(-4) != Zero128 || Mask(200) != Max128 {
		t.Error("Mask clamp failed")
	}
	// Mask(n) has exactly n leading ones.
	for n := 0; n <= 128; n++ {
		m := Mask(n)
		for i := 0; i < 128; i++ {
			want := uint(0)
			if i < n {
				want = 1
			}
			if m.Bit(i) != want {
				t.Fatalf("Mask(%d).Bit(%d) = %d, want %d", n, i, m.Bit(i), want)
			}
		}
	}
}

// shiftMask is Mask by its definition, from two word shifts: the top n
// bits set, n clamped to [0,128].
func shiftMask(n int) Word128 {
	hi, lo := min(max(n, 0), 64), min(max(n-64, 0), 64)
	return Word128{Hi: ^(^uint64(0) >> hi), Lo: ^(^uint64(0) >> lo)}
}

func TestMaskMatchesShiftDefinition(t *testing.T) {
	for n := -2; n <= 130; n++ {
		if got, want := Mask(n), shiftMask(n); got != want {
			t.Errorf("Mask(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestBit(t *testing.T) {
	w := Word128{Hi: 1 << 63, Lo: 1}
	if w.Bit(0) != 1 || w.Bit(127) != 1 {
		t.Error("end bits wrong")
	}
	for i := 1; i < 127; i++ {
		if w.Bit(i) != 0 {
			t.Errorf("Bit(%d) = 1", i)
		}
	}
}

func TestBooleanOps(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a, b := Word128{aHi, aLo}, Word128{bHi, bLo}
		// De Morgan.
		if a.And(b).Not() != a.Not().Or(b.Not()) {
			return false
		}
		// XOR self-inverse.
		if a.Xor(b).Xor(b) != a {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randWord(r *rand.Rand) Word128 {
	return Word128{Hi: r.Uint64(), Lo: r.Uint64()}
}

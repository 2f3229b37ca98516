// Package bits provides 128-bit word arithmetic for IPv6 addresses and
// prefixes, plus the 32-bit word slicing used by the TACO data path.
//
// TACO buses are 32 bits wide, so a 128-bit IPv6 address travels as four
// bus words, most-significant first. Word128 keeps that mapping explicit.
package bits

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Word128 is an unsigned 128-bit integer stored as two 64-bit halves.
// The zero value is the number 0.
type Word128 struct {
	Hi uint64 // bits 127..64
	Lo uint64 // bits 63..0
}

// Zero128 is the zero word.
var Zero128 = Word128{}

// Max128 is the all-ones word.
var Max128 = Word128{Hi: ^uint64(0), Lo: ^uint64(0)}

// FromUint64 returns a Word128 holding v in its low bits.
func FromUint64(v uint64) Word128 { return Word128{Lo: v} }

// FromWords assembles a Word128 from four 32-bit bus words,
// most-significant first (w0 holds bits 127..96).
func FromWords(w0, w1, w2, w3 uint32) Word128 {
	return Word128{
		Hi: uint64(w0)<<32 | uint64(w1),
		Lo: uint64(w2)<<32 | uint64(w3),
	}
}

// FromBytes assembles a Word128 from 16 big-endian bytes.
func FromBytes(b []byte) (Word128, error) {
	if len(b) != 16 {
		return Word128{}, fmt.Errorf("bits: need 16 bytes, got %d", len(b))
	}
	var w Word128
	for i := 0; i < 8; i++ {
		w.Hi = w.Hi<<8 | uint64(b[i])
	}
	for i := 8; i < 16; i++ {
		w.Lo = w.Lo<<8 | uint64(b[i])
	}
	return w, nil
}

// Bytes returns the 16 big-endian bytes of w.
func (w Word128) Bytes() [16]byte {
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(w.Hi >> (56 - 8*i))
		b[8+i] = byte(w.Lo >> (56 - 8*i))
	}
	return b
}

// Words splits w into four 32-bit bus words, most-significant first.
func (w Word128) Words() [4]uint32 {
	return [4]uint32{
		uint32(w.Hi >> 32), uint32(w.Hi),
		uint32(w.Lo >> 32), uint32(w.Lo),
	}
}

// Word returns bus word i (0 = most significant). It panics if i is not
// in [0,3]; callers index with constants or loop bounds.
func (w Word128) Word(i int) uint32 {
	switch i {
	case 0:
		return uint32(w.Hi >> 32)
	case 1:
		return uint32(w.Hi)
	case 2:
		return uint32(w.Lo >> 32)
	case 3:
		return uint32(w.Lo)
	}
	panic("bits: word index out of range")
}

// SetWord returns w with bus word i replaced by v.
func (w Word128) SetWord(i int, v uint32) Word128 {
	switch i {
	case 0:
		w.Hi = w.Hi&0x00000000ffffffff | uint64(v)<<32
	case 1:
		w.Hi = w.Hi&0xffffffff00000000 | uint64(v)
	case 2:
		w.Lo = w.Lo&0x00000000ffffffff | uint64(v)<<32
	case 3:
		w.Lo = w.Lo&0xffffffff00000000 | uint64(v)
	default:
		panic("bits: word index out of range")
	}
	return w
}

// And returns w & x.
func (w Word128) And(x Word128) Word128 { return Word128{w.Hi & x.Hi, w.Lo & x.Lo} }

// Or returns w | x.
func (w Word128) Or(x Word128) Word128 { return Word128{w.Hi | x.Hi, w.Lo | x.Lo} }

// Xor returns w ^ x.
func (w Word128) Xor(x Word128) Word128 { return Word128{w.Hi ^ x.Hi, w.Lo ^ x.Lo} }

// Not returns ^w.
func (w Word128) Not() Word128 { return Word128{^w.Hi, ^w.Lo} }

// IsZero reports whether w == 0.
func (w Word128) IsZero() bool { return w.Hi == 0 && w.Lo == 0 }

// Cmp compares w and x as unsigned integers, returning -1, 0 or +1.
func (w Word128) Cmp(x Word128) int {
	switch {
	case w.Hi < x.Hi:
		return -1
	case w.Hi > x.Hi:
		return 1
	case w.Lo < x.Lo:
		return -1
	case w.Lo > x.Lo:
		return 1
	}
	return 0
}

// Less reports whether w < x as unsigned integers.
func (w Word128) Less(x Word128) bool { return w.Cmp(x) < 0 }

// Add returns w + x (mod 2^128) and the carry out (0 or 1).
func (w Word128) Add(x Word128) (sum Word128, carry uint64) {
	lo := w.Lo + x.Lo
	c := uint64(0)
	if lo < w.Lo {
		c = 1
	}
	hi := w.Hi + x.Hi
	carryHi := uint64(0)
	if hi < w.Hi {
		carryHi = 1
	}
	hi2 := hi + c
	if hi2 < hi {
		carryHi = 1
	}
	return Word128{hi2, lo}, carryHi
}

// Sub returns w - x (mod 2^128) and the borrow out (0 or 1).
func (w Word128) Sub(x Word128) (diff Word128, borrow uint64) {
	lo := w.Lo - x.Lo
	b := uint64(0)
	if w.Lo < x.Lo {
		b = 1
	}
	hi := w.Hi - x.Hi
	borrowOut := uint64(0)
	if w.Hi < x.Hi {
		borrowOut = 1
	}
	hi2 := hi - b
	if hi < b {
		borrowOut = 1
	}
	return Word128{hi2, lo}, borrowOut
}

// AddOne returns w + 1 (mod 2^128).
func (w Word128) AddOne() Word128 {
	s, _ := w.Add(FromUint64(1))
	return s
}

// SubOne returns w - 1 (mod 2^128).
func (w Word128) SubOne() Word128 {
	d, _ := w.Sub(FromUint64(1))
	return d
}

// Shl returns w << n. Shifts of 128 or more yield zero.
func (w Word128) Shl(n uint) Word128 {
	switch {
	case n == 0:
		return w
	case n >= 128:
		return Word128{}
	case n >= 64:
		return Word128{Hi: w.Lo << (n - 64)}
	}
	return Word128{Hi: w.Hi<<n | w.Lo>>(64-n), Lo: w.Lo << n}
}

// Shr returns w >> n (logical). Shifts of 128 or more yield zero.
func (w Word128) Shr(n uint) Word128 {
	switch {
	case n == 0:
		return w
	case n >= 128:
		return Word128{}
	case n >= 64:
		return Word128{Lo: w.Hi >> (n - 64)}
	}
	return Word128{Hi: w.Hi >> n, Lo: w.Lo>>n | w.Hi<<(64-n)}
}

// Mask returns the 128-bit mask with the top n bits set (an IPv6 netmask
// of prefix length n). n is clamped to [0,128].
func Mask(n int) Word128 {
	return masks[min(max(n, 0), 128)]
}

// masks[n] is Max128 shifted left by 128-n: every Prefix.Contains reads
// one instead of taking Shl's branches.
var masks = func() (m [129]Word128) {
	for n := range m {
		m[n] = Max128.Shl(uint(128 - n))
	}
	return m
}()

// Bit returns bit i of w, where bit 0 is the most significant bit
// (network order, matching prefix-length semantics).
func (w Word128) Bit(i int) uint {
	if i < 0 || i > 127 {
		panic("bits: bit index out of range")
	}
	if i < 64 {
		return uint(w.Hi>>(63-i)) & 1
	}
	return uint(w.Lo>>(127-i)) & 1
}

// String formats w as 32 hexadecimal digits.
func (w Word128) String() string {
	return fmt.Sprintf("%016x%016x", w.Hi, w.Lo)
}

// ParseHex parses a word formatted as up to 32 hexadecimal digits.
func ParseHex(s string) (Word128, error) {
	s = strings.TrimPrefix(s, "0x")
	if s == "" || len(s) > 32 {
		return Word128{}, errors.New("bits: bad hex word length")
	}
	if len(s) <= 16 {
		lo, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return Word128{}, fmt.Errorf("bits: %v", err)
		}
		return Word128{Lo: lo}, nil
	}
	hi, err := strconv.ParseUint(s[:len(s)-16], 16, 64)
	if err != nil {
		return Word128{}, fmt.Errorf("bits: %v", err)
	}
	lo, err := strconv.ParseUint(s[len(s)-16:], 16, 64)
	if err != nil {
		return Word128{}, fmt.Errorf("bits: %v", err)
	}
	return Word128{Hi: hi, Lo: lo}, nil
}

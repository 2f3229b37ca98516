package isa

import (
	"math/rand"
	"reflect"
	"testing"
)

// validEncoding is a small program's encoding: an immediate move, a
// socket move and a negated guard.
func validEncoding(t testing.TB) []byte {
	t.Helper()
	b, err := EncodeProgram(&Program{
		Ins: []Instruction{
			{Moves: []Move{{Src: ImmSrc(42), Dst: 7}}},
			{Moves: []Move{
				{Src: SocketSrc(3), Dst: 9},
				{Guard: Guard{Terms: []GuardTerm{{Signal: 5, Negate: true}}},
					Src: SocketSrc(2), Dst: 4},
			}},
		},
		Labels: map[string]int{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeNeverPanics feeds noise and corrupted encodings to the
// decoder: it must fail cleanly, and anything it does accept must
// re-encode without error.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	valid := validEncoding(t)
	for trial := 0; trial < 5000; trial++ {
		var b []byte
		switch trial % 3 {
		case 0:
			b = make([]byte, rng.Intn(80))
			rng.Read(b)
		case 1:
			b = append([]byte(nil), valid[:rng.Intn(len(valid)+1)]...)
		case 2:
			b = append([]byte(nil), valid...)
			for k := 0; k < 1+rng.Intn(4); k++ {
				b[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8))
			}
		}
		p, err := DecodeProgram(b)
		if err != nil {
			continue
		}
		if _, err := EncodeProgram(p); err != nil {
			t.Fatalf("trial %d: decoded program fails to re-encode: %v", trial, err)
		}
	}
}

// FuzzDecodeProgram feeds bytes to DecodeProgram, as tacoasm -d does
// with a binary: it must never panic, and a program it accepts must
// re-encode to bytes that decode to the same program.
func FuzzDecodeProgram(f *testing.F) {
	valid := validEncoding(f)
	f.Add(valid)
	for _, n := range []int{0, 4, 10, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(data)
		if err != nil {
			return
		}
		b, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("decoded program fails to re-encode: %v", err)
		}
		again, err := DecodeProgram(b)
		if err != nil {
			t.Fatalf("re-encoded program fails to decode: %v", err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("re-encoding changed the program:\n%+v\n%+v", p, again)
		}
	})
}

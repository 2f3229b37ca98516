package ipv6

import (
	"math/rand"
	"testing"
)

// FuzzParsers feeds byte soup to every parser: they must return errors,
// not panic, and Validate must never accept something ParseHeader
// rejects. The seeds are the three shapes of malformed input — pure
// noise, a truncated valid datagram and a bit-flipped one — drawn from
// a fixed RNG; `make fuzz-ipv6` mutates from there.
func FuzzParsers(f *testing.F) {
	rng := rand.New(rand.NewSource(31337))
	valid, err := BuildDatagram(Header{HopLimit: 7, Src: Loopback, Dst: AllNodes},
		[]ExtensionHeader{{Proto: ProtoHopByHop, Body: []byte{1, 2, 3}}},
		ProtoUDP, []byte{9, 9, 9})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for trial := 0; trial < 48; trial++ {
		var b []byte
		switch trial % 3 {
		case 0: // pure noise
			b = make([]byte, rng.Intn(120))
			rng.Read(b)
		case 1: // truncated valid datagram
			b = append([]byte(nil), valid[:rng.Intn(len(valid)+1)]...)
		case 2: // bit-flipped valid datagram
			b = append([]byte(nil), valid...)
			for k := 0; k < 1+rng.Intn(6); k++ {
				b[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8))
			}
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		_, hErr := ParseHeader(b)
		_, off, ulErr := UpperLayer(b)
		_, vErr := Validate(b)
		if hErr != nil && vErr == nil {
			t.Fatalf("Validate accepted a datagram ParseHeader rejects: %v", hErr)
		}
		// The upper-layer offset must lie within the buffer when the
		// walk succeeds.
		if hErr == nil && ulErr == nil && (off < HeaderBytes || off > len(b)) {
			t.Fatalf("offset %d outside datagram of %d", off, len(b))
		}
		// The UDP parser on arbitrary tails.
		if len(b) > HeaderBytes {
			_, _, _ = ParseUDP(Loopback, Loopback, b[HeaderBytes:])
		}
	})
}

// TestDecrementHopLimitOnGarbage must not panic on short input.
func TestDecrementHopLimitOnGarbage(t *testing.T) {
	for n := 0; n < HeaderBytes; n++ {
		if DecrementHopLimit(make([]byte, n)) {
			t.Fatalf("decremented a %d-byte buffer", n)
		}
	}
}

package ipv6

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// checksumFold16 is the 16-bits-per-step loop checksumFold used before
// it went wide, kept as the reference.
func checksumFold16(sum uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return sum
}

func TestChecksumFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	fills := map[string]func(b []byte){
		"random": func(b []byte) { rng.Read(b) },
		"ones": func(b []byte) {
			for i := range b {
				b[i] = 0xff // the most carries a buffer can produce
			}
		},
		"zero": func(b []byte) {},
	}
	for name, fill := range fills {
		for n := 0; n <= 1501; n++ {
			b := make([]byte, n)
			fill(b)
			for _, init := range []uint32{0, 1, 0xffff, uint32(rng.Intn(0x10000))} {
				if got, want := checksumFold(init, b), checksumFold16(init, b); got != want {
					t.Fatalf("%s, %d bytes, initial %#x: %#x, reference %#x", name, n, init, got, want)
				}
			}
		}
	}
	// The largest UDP payload, all ones: the accumulator must not wrap.
	big := bytes.Repeat([]byte{0xff}, 0xffff)
	if got, want := checksumFold(0xffff, big), checksumFold16(0xffff, big); got != want {
		t.Errorf("64 KiB of ones: %#x, reference %#x", got, want)
	}
}

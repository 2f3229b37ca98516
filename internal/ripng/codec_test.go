package ripng

import (
	"bytes"
	"math/rand"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
)

// wrapThreeBuffers is how WrapUDP built a frame before it wrote into one
// buffer; the bytes on the wire must not have moved.
func wrapThreeBuffers(t testing.TB, src, dst ipv6.Addr, p Packet) []byte {
	t.Helper()
	seg, err := ipv6.MarshalUDP(src, dst, Port, Port, p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	d, err := ipv6.BuildDatagram(ipv6.Header{HopLimit: 255, Src: src, Dst: dst}, nil, ipv6.ProtoUDP, seg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func randomPacket(rng *rand.Rand, n int) Packet {
	p := Packet{Command: uint8(1 + rng.Intn(2))}
	for i := 0; i < n; i++ {
		p.RTEs = append(p.RTEs, RTE{
			Prefix: bits.MakePrefix(bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()}, rng.Intn(129)),
			Tag:    uint16(rng.Intn(1 << 16)),
			Metric: uint8(1 + rng.Intn(Infinity)),
		})
	}
	return p
}

func TestWrapUDPMatchesThreeBufferBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	for _, n := range []int{0, 1, 69, 70} {
		for round := 0; round < 50; round++ {
			p := randomPacket(rng, n)
			src := ipv6.Addr{Hi: 0xfe80 << 48, Lo: rng.Uint64()}
			dst := ipv6.AllRIPRouters
			if round%2 == 1 {
				dst = ipv6.Addr{Hi: 0xfe80 << 48, Lo: rng.Uint64()}
			}
			got, err := WrapUDP(src, dst, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := wrapThreeBuffers(t, src, dst, p); !bytes.Equal(got, want) {
				t.Fatalf("%d RTEs, round %d: frame differs\n got %x\nwant %x", n, round, got, want)
			}
			if len(got) != cap(got) {
				t.Errorf("%d RTEs: frame len %d in a buffer of %d", n, len(got), cap(got))
			}
			gotSrc, back, err := UnwrapUDP(got)
			if err != nil || gotSrc != src || back.Command != p.Command || len(back.RTEs) != n {
				t.Fatalf("%d RTEs: unwrap = %v, %+v, %v", n, gotSrc, back, err)
			}
			for i := range p.RTEs {
				if back.RTEs[i] != p.RTEs[i] {
					t.Fatalf("RTE %d: %+v, want %+v", i, back.RTEs[i], p.RTEs[i])
				}
			}
		}
	}
}

// Every single-bit flip inside the checksummed span — both addresses
// and the whole UDP segment — must be rejected: a one's-complement sum
// cannot miss a one-bit error.
func TestUnwrapRejectsEverySingleBitFlip(t *testing.T) {
	p := randomPacket(rand.New(rand.NewSource(7)), 3)
	frame, err := WrapUDP(ll(1), ipv6.AllRIPRouters, p)
	if err != nil {
		t.Fatal(err)
	}
	for bit := checksummedFrom * 8; bit < len(frame)*8; bit++ {
		frame[bit/8] ^= 1 << (bit % 8)
		if _, _, err := UnwrapUDP(frame); err == nil {
			t.Errorf("bit %d flipped and the frame still unwrapped", bit)
		}
		frame[bit/8] ^= 1 << (bit % 8)
	}
	if _, _, err := UnwrapUDP(frame); err != nil {
		t.Fatalf("restored frame rejected: %v", err)
	}
}

// checksummedFrom is the frame offset of the source address, the first
// byte the UDP pseudo-header covers.
const checksummedFrom = 8

func TestCodecAllocs(t *testing.T) {
	p := randomPacket(rand.New(rand.NewSource(1)), MaxRTEsPerPacket)
	src := ll(1)
	if got := testing.AllocsPerRun(50, func() {
		if _, err := WrapUDP(src, ipv6.AllRIPRouters, p); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("WrapUDP allocates %v times, want 1", got)
	}
	wire := p.Marshal()
	if got := testing.AllocsPerRun(50, func() {
		if _, err := Parse(wire); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Parse allocates %v times, want at most 1", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		if q, err := Parse(wire[:HeaderBytes]); err != nil || q.RTEs != nil {
			t.Fatal(q, err)
		}
	}); got != 0 {
		t.Errorf("Parse of an empty body allocates %v times, want 0", got)
	}
}

// FuzzWrapUnwrapUDP builds a packet from the fuzzer's bytes, checks the
// frame equals the three-buffer build and round-trips, and checks that
// flipping the fuzzer's choice of bit inside the checksummed span is
// rejected.
func FuzzWrapUnwrapUDP(f *testing.F) {
	f.Add(uint64(1), uint64(2), []byte{}, uint16(0))
	f.Add(uint64(7), uint64(0), bytes.Repeat([]byte{0xff}, RTEBytes), uint16(77))
	f.Add(uint64(2003), uint64(521), bytes.Repeat([]byte{0xa5, 0x00, 0x3c}, 140), uint16(4097))
	f.Fuzz(func(t *testing.T, srcLo, dstLo uint64, raw []byte, flip uint16) {
		p := Packet{Command: CommandResponse}
		for ; len(raw) >= RTEBytes && len(p.RTEs) < MaxRTEsPerPacket; raw = raw[RTEBytes:] {
			addr, _ := bits.FromBytes(raw[:16])
			p.RTEs = append(p.RTEs, RTE{
				Prefix: bits.MakePrefix(addr, int(raw[18])%129),
				Tag:    uint16(raw[16])<<8 | uint16(raw[17]),
				Metric: 1 + raw[19]%Infinity,
			})
		}
		src := ipv6.Addr{Hi: 0xfe80 << 48, Lo: srcLo}
		dst := ipv6.Addr{Hi: 0xff02 << 48, Lo: dstLo}
		frame, err := WrapUDP(src, dst, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := wrapThreeBuffers(t, src, dst, p); !bytes.Equal(frame, want) {
			t.Fatalf("frame differs from the three-buffer build\n got %x\nwant %x", frame, want)
		}
		gotSrc, back, err := UnwrapUDP(frame)
		if err != nil || gotSrc != src || len(back.RTEs) != len(p.RTEs) {
			t.Fatalf("round trip: %v, %d RTEs, %v", gotSrc, len(back.RTEs), err)
		}
		for i := range p.RTEs {
			if back.RTEs[i] != p.RTEs[i] {
				t.Fatalf("RTE %d: %+v, want %+v", i, back.RTEs[i], p.RTEs[i])
			}
		}
		bit := checksummedFrom*8 + int(flip)%((len(frame)-checksummedFrom)*8)
		frame[bit/8] ^= 1 << (bit % 8)
		if _, _, err := UnwrapUDP(frame); err == nil {
			t.Fatalf("bit %d flipped and the frame still unwrapped", bit)
		}
	})
}

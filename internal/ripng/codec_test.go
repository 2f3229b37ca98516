package ripng

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
)

// wrapThreeBuffers is how WrapUDP built a frame before it wrote into one
// buffer; the bytes on the wire must not have moved.
func wrapThreeBuffers(t testing.TB, src, dst ipv6.Addr, p Packet) []byte {
	t.Helper()
	return wrapThreeBuffersRaw(t, src, dst, p.Marshal())
}

// wrapThreeBuffersRaw frames an arbitrary RIPng body the three-buffer
// way, so a body Marshal would never produce gets a valid checksum.
func wrapThreeBuffersRaw(t testing.TB, src, dst ipv6.Addr, body []byte) []byte {
	t.Helper()
	seg, err := ipv6.MarshalUDP(src, dst, Port, Port, body)
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
			got, err := WrapUDP(nil, src, dst, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := wrapThreeBuffers(t, src, dst, p); !bytes.Equal(got, want) {
				t.Fatalf("%d RTEs, round %d: frame differs\n got %x\nwant %x", n, round, got, want)
			}
			if len(got) != cap(got) {
				t.Errorf("%d RTEs: frame len %d in a buffer of %d", n, len(got), cap(got))
			}
			gotSrc, back, err := UnwrapUDP(nil, got)
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
	frame, err := WrapUDP(nil, ll(1), ipv6.AllRIPRouters, p)
	if err != nil {
		t.Fatal(err)
	}
	for bit := checksummedFrom * 8; bit < len(frame)*8; bit++ {
		frame[bit/8] ^= 1 << (bit % 8)
		if _, _, err := UnwrapUDP(nil, frame); err == nil {
			t.Errorf("bit %d flipped and the frame still unwrapped", bit)
		}
		frame[bit/8] ^= 1 << (bit % 8)
	}
	if _, _, err := UnwrapUDP(nil, frame); err != nil {
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
		if _, err := WrapUDP(nil, src, ipv6.AllRIPRouters, p); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("WrapUDP allocates %v times, want 1", got)
	}
	wire := p.Marshal()
	if got := testing.AllocsPerRun(50, func() {
		if _, err := Parse(nil, wire); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Parse allocates %v times, want at most 1", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		if q, err := Parse(nil, wire[:HeaderBytes]); err != nil || q.RTEs != nil {
			t.Fatal(q, err)
		}
	}); got != 0 {
		t.Errorf("Parse of an empty body allocates %v times, want 0", got)
	}
	// Into buffers the caller supplies, neither direction allocates.
	buf := make([]byte, 0, MaxFrameBytes)
	var frame []byte
	if got := testing.AllocsPerRun(50, func() {
		var err error
		if frame, err = WrapUDP(buf, src, ipv6.AllRIPRouters, p); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("WrapUDP into a supplied buffer allocates %v times, want 0", got)
	}
	rtes := make([]RTE, 0, MaxRTEsPerPacket)
	if got := testing.AllocsPerRun(50, func() {
		if _, err := Parse(rtes, wire); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Parse into a supplied scratch allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, _, err := UnwrapUDP(rtes, frame); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("UnwrapUDP into a supplied scratch allocates %v times, want 0", got)
	}
}

// FuzzWrapUnwrapUDP builds a packet from the fuzzer's bytes, checks the
// frame equals the three-buffer build and round-trips through the
// one-pass decoder, checks that encoding into a reused, dirty buffer and
// decoding into a dirty scratch give the same bytes and fields as the
// fresh path, checks that the frame derived for each of three
// interfaces equals WrapUDP of that interface's packet, and checks that
// flipping the fuzzer's choice of bit inside the checksummed span is
// rejected.
func FuzzWrapUnwrapUDP(f *testing.F) {
	f.Add(uint64(1), uint64(2), []byte{}, uint16(0))
	f.Add(uint64(7), uint64(0), bytes.Repeat([]byte{0xff}, RTEBytes), uint16(77))
	f.Add(uint64(2003), uint64(521), bytes.Repeat([]byte{0xa5, 0x00, 0x3c}, 140), uint16(4097))
	f.Fuzz(func(t *testing.T, srcLo, dstLo uint64, raw []byte, flip uint16) {
		p := Packet{Command: CommandResponse}
		var poisonOn []int32 // the interface each RTE is poisoned on, from its address
		for ; len(raw) >= RTEBytes && len(p.RTEs) < MaxRTEsPerPacket; raw = raw[RTEBytes:] {
			addr, _ := bits.FromBytes(raw[:16])
			p.RTEs = append(p.RTEs, RTE{
				Prefix: bits.MakePrefix(addr, int(raw[18])%129),
				Tag:    uint16(raw[16])<<8 | uint16(raw[17]),
				Metric: 1 + raw[19]%Infinity,
			})
			poisonOn = append(poisonOn, int32(raw[15]%4)-1)
		}
		src := ipv6.Addr{Hi: 0xfe80 << 48, Lo: srcLo}
		dst := ipv6.Addr{Hi: 0xff02 << 48, Lo: dstLo}
		frame, err := WrapUDP(nil, src, dst, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := wrapThreeBuffers(t, src, dst, p); !bytes.Equal(frame, want) {
			t.Fatalf("frame differs from the three-buffer build\n got %x\nwant %x", frame, want)
		}
		gotSrc, back, ok := unwrapOnePass(nil, frame)
		if !ok || gotSrc != src || len(back.RTEs) != len(p.RTEs) {
			t.Fatalf("one-pass round trip: %v, %d RTEs, ok %v", gotSrc, len(back.RTEs), ok)
		}
		for i := range p.RTEs {
			if back.RTEs[i] != p.RTEs[i] {
				t.Fatalf("RTE %d: %+v, want %+v", i, back.RTEs[i], p.RTEs[i])
			}
		}
		dirty := bytes.Repeat([]byte{0xa5}, MaxFrameBytes)
		reused, err := WrapUDP(dirty, src, dst, p)
		if err != nil || !bytes.Equal(reused, frame) {
			t.Fatalf("reused buffer: %v\n got %x\nwant %x", err, reused, frame)
		}
		if &reused[0] != &dirty[0] {
			t.Fatal("a frame that fits was not encoded into the supplied buffer")
		}
		scratch := make([]RTE, MaxRTEsPerPacket)
		for i := range scratch {
			scratch[i] = RTE{Prefix: bits.MakePrefix(bits.Word128{Hi: ^uint64(i)}, 64), Tag: 0xdead, Metric: 9}
		}
		gotSrc, again, err := UnwrapUDP(scratch, reused)
		if err != nil || gotSrc != src || again.Command != back.Command || !slices.Equal(again.RTEs, back.RTEs) {
			t.Fatalf("dirty scratch: %v, %+v, %v; fresh %+v", gotSrc, again, err, back)
		}
		op := OutPacket{Iface: AllIfaces, Dst: dst, Pkt: p, PoisonOn: poisonOn}
		for f := 0; f < 3; f++ {
			srcF := ipv6.Addr{Hi: 0xfe80 << 48, Lo: srcLo + uint64(f)*0x9e3779b97f4a7c15}
			want, err := WrapUDP(nil, srcF, dst, op.On(f))
			if err != nil {
				t.Fatal(err)
			}
			if got := DeriveUDP(dirty, frame, srcF, op, f); !bytes.Equal(got, want) {
				t.Fatalf("interface %d: derived frame differs\n got %x\nwant %x", f, got, want)
			}
		}
		bit := checksummedFrom*8 + int(flip)%((len(frame)-checksummedFrom)*8)
		frame[bit/8] ^= 1 << (bit % 8)
		if _, _, err := UnwrapUDP(nil, frame); err == nil {
			t.Fatalf("bit %d flipped and the frame still unwrapped", bit)
		}
	})
}

// FuzzUnwrapUDP runs UnwrapUDP on arbitrary bytes against the two-step
// decoder (ipv6.ParseUDP, then Parse): both must fail or both succeed,
// and on success return the same source, command and RTEs.
func FuzzUnwrapUDP(f *testing.F) {
	rng := rand.New(rand.NewSource(521))
	for _, n := range []int{0, 1, 3, MaxRTEsPerPacket} {
		frame, err := WrapUDP(nil, ll(uint64(n)), ipv6.AllRIPRouters, randomPacket(rng, n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		bad := bytes.Clone(frame)
		bad[len(bad)-1] = 0 // metric 0 and a wrong checksum at once
		f.Add(bad)
		zero := bytes.Clone(frame)
		zero[ipv6.HeaderBytes+6], zero[ipv6.HeaderBytes+7] = 0, 0
		f.Add(zero)
		f.Add(frame[:len(frame)-1])
	}
	body := randomPacket(rng, 2).Marshal()
	seg, err := ipv6.MarshalUDP(ll(1), ipv6.AllRIPRouters, Port, Port, body)
	if err != nil {
		f.Fatal(err)
	}
	ext, err := ipv6.BuildDatagram(ipv6.Header{HopLimit: 255, Src: ll(1), Dst: ipv6.AllRIPRouters},
		[]ipv6.ExtensionHeader{{Proto: ipv6.ProtoHopByHop, Body: []byte{1, 0}}}, ipv6.ProtoUDP, seg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ext)
	body[len(body)-1] = 0 // metric 0 under a checksum that holds
	f.Add(wrapThreeBuffersRaw(f, ll(1), ipv6.AllRIPRouters, body))
	f.Fuzz(func(t *testing.T, data []byte) {
		src, p, err := UnwrapUDP(nil, data)
		wantSrc, want, wantErr := unwrapTwoStep(nil, data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("one-pass error %v, two-step error %v", err, wantErr)
		}
		if err == nil && (src != wantSrc || p.Command != want.Command || !slices.Equal(p.RTEs, want.RTEs)) {
			t.Fatalf("one-pass %v %+v, two-step %v %+v", src, p, wantSrc, want)
		}
	})
}

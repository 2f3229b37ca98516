package ipv6

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"taco/internal/bits"
)

func TestParseFormatAddr(t *testing.T) {
	cases := map[string]string{ // input -> canonical
		"::":          "::",
		"::1":         "::1",
		"2001:db8::1": "2001:db8::1",
		"2001:0db8:0000:0000:0000:0000:0000:0001": "2001:db8::1",
		"ff02::9":              "ff02::9",
		"fe80::1:2:3:4":        "fe80::1:2:3:4",
		"1:2:3:4:5:6:7:8":      "1:2:3:4:5:6:7:8",
		"0:0:1:0:0:0:0:1":      "0:0:1::1",
		"1::":                  "1::",
		"A:B:C:D:E:F:1:2":      "a:b:c:d:e:f:1:2",
		"2001:db8:0:0:1:0:0:1": "2001:db8::1:0:0:1",
	}
	for in, want := range cases {
		a, err := ParseAddr(in)
		if err != nil {
			t.Errorf("ParseAddr(%q): %v", in, err)
			continue
		}
		if got := FormatAddr(a); got != want {
			t.Errorf("FormatAddr(ParseAddr(%q)) = %q, want %q", in, got, want)
		}
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, bad := range []string{
		"", ":::", "1:2", "1:2:3:4:5:6:7:8:9", "g::1", "1::2::3",
		"1:2:3:4:5:6:7:8::", "12345::",
	} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) succeeded", bad)
		}
	}
}

func TestAddrRoundTripProperty(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := bits.Word128{Hi: hi, Lo: lo}
		got, err := ParseAddr(FormatAddr(a))
		return err == nil && got == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClassification(t *testing.T) {
	if !IsMulticast(AllRIPRouters) || !IsMulticast(AllNodes) {
		t.Error("ff02:: groups not multicast")
	}
	if IsMulticast(Loopback) {
		t.Error("loopback multicast")
	}
	if !IsLinkLocal(MustParseAddr("fe80::1")) {
		t.Error("fe80::1 not link-local")
	}
	if IsLinkLocal(MustParseAddr("fec0::1")) {
		t.Error("fec0::1 reported link-local")
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("2001:db8::/32")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len != 32 || FormatPrefix(p) != "2001:db8::/32" {
		t.Errorf("prefix = %v", FormatPrefix(p))
	}
	// Host bits must be masked.
	p2, err := ParsePrefix("2001:db8::ffff/32")
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Errorf("host bits not cleared: %v", FormatPrefix(p2))
	}
	for _, bad := range []string{"2001:db8::", "x/32", "::/129", "::/x"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded", bad)
		}
	}
}

func TestHeaderMarshalParse(t *testing.T) {
	h := Header{
		TrafficClass: 0xab,
		FlowLabel:    0xbeef5,
		PayloadLen:   512,
		NextHeader:   ProtoUDP,
		HopLimit:     64,
		Src:          MustParseAddr("2001:db8::1"),
		Dst:          MustParseAddr("2001:db8::2"),
	}
	wire := h.Marshal(nil)
	if len(wire) != HeaderBytes {
		t.Fatalf("wire length %d", len(wire))
	}
	got, err := ParseHeader(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, h)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	if _, err := ParseHeader(make([]byte, 39)); err == nil {
		t.Error("short header accepted")
	}
	h := Header{HopLimit: 1}
	bad := h.Marshal(nil)
	bad[0] = 0x40 // version 4
	if _, err := ParseHeader(bad); err == nil {
		t.Error("version 4 accepted")
	}
}

func TestBuildDatagramNoExtensions(t *testing.T) {
	h := Header{HopLimit: 64, Src: Loopback, Dst: Loopback}
	payload := []byte{1, 2, 3}
	d, err := BuildDatagram(h, nil, ProtoUDP, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseHeader(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextHeader != ProtoUDP || got.PayloadLen != 3 {
		t.Errorf("header = %+v", got)
	}
	proto, off, err := UpperLayer(d)
	if err != nil || proto != ProtoUDP || off != HeaderBytes {
		t.Errorf("UpperLayer = %d, %d, %v", proto, off, err)
	}
}

func TestBuildDatagramWithExtensionChain(t *testing.T) {
	h := Header{HopLimit: 64, Src: Loopback, Dst: Loopback}
	exts := []ExtensionHeader{
		{Proto: ProtoHopByHop, Body: []byte{1, 2, 3, 4, 5, 6}}, // 8 bytes total
		{Proto: ProtoDestOpts, Body: make([]byte, 13)},         // 16 bytes padded
	}
	payload := []byte{0xaa}
	d, err := BuildDatagram(h, exts, ProtoICMPv6, payload)
	if err != nil {
		t.Fatal(err)
	}
	proto, off, err := UpperLayer(d)
	if err != nil {
		t.Fatal(err)
	}
	if proto != ProtoICMPv6 {
		t.Errorf("proto = %d", proto)
	}
	if want := HeaderBytes + 8 + 16; off != want {
		t.Errorf("offset = %d, want %d", off, want)
	}
	if d[off] != 0xaa {
		t.Errorf("payload byte = %x", d[off])
	}
	hdr, _ := ParseHeader(d)
	if hdr.NextHeader != ProtoHopByHop {
		t.Errorf("first next-header = %d", hdr.NextHeader)
	}
}

func TestUpperLayerTruncatedChain(t *testing.T) {
	h := Header{HopLimit: 64, NextHeader: ProtoHopByHop, PayloadLen: 1}
	d := h.Marshal(nil)
	d = append(d, 17) // half an extension header
	if _, _, err := UpperLayer(d); err == nil {
		t.Error("truncated chain accepted")
	}
}

func TestValidate(t *testing.T) {
	good, err := BuildDatagram(Header{HopLimit: 2, Src: MustParseAddr("2001:db8::1"),
		Dst: MustParseAddr("2001:db8::2")}, nil, ProtoNoNext, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(good); err != nil {
		t.Errorf("good datagram rejected: %v", err)
	}

	hop0 := append([]byte(nil), good...)
	hop0[7] = 0
	if _, err := Validate(hop0); err == nil || !strings.Contains(err.Error(), "hop limit") {
		t.Errorf("hop limit 0 accepted: %v", err)
	}

	mcastSrc, err := BuildDatagram(Header{HopLimit: 2, Src: AllNodes, Dst: Loopback}, nil, ProtoNoNext, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(mcastSrc); err == nil {
		t.Error("multicast source accepted")
	}

	short := good[:len(good)-1]
	shortHdr := append([]byte(nil), short...)
	shortHdr[4], shortHdr[5] = 0xff, 0xff // claims huge payload
	if _, err := Validate(shortHdr); err == nil {
		t.Error("inconsistent payload length accepted")
	}
}

func TestDecrementHopLimit(t *testing.T) {
	d, err := BuildDatagram(Header{HopLimit: 2, Src: Loopback, Dst: Loopback}, nil, ProtoNoNext, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !DecrementHopLimit(d) {
		t.Fatal("decrement failed")
	}
	h, _ := ParseHeader(d)
	if h.HopLimit != 1 {
		t.Errorf("hop limit = %d", h.HopLimit)
	}
	if !DecrementHopLimit(d) {
		t.Fatal("second decrement failed")
	}
	if DecrementHopLimit(d) {
		t.Error("decrement below zero succeeded")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	src, dst := MustParseAddr("2001:db8::1"), MustParseAddr("ff02::9")
	payload := []byte("ripng response")
	seg, err := MarshalUDP(src, dst, 521, 521, payload)
	if err != nil {
		t.Fatal(err)
	}
	h, got, err := ParseUDP(src, dst, seg)
	if err != nil {
		t.Fatal(err)
	}
	if h.SrcPort != 521 || h.DstPort != 521 || string(got) != string(payload) {
		t.Errorf("parsed %+v %q", h, got)
	}
}

func TestUDPChecksumDetectsCorruption(t *testing.T) {
	src, dst := MustParseAddr("2001:db8::1"), MustParseAddr("2001:db8::2")
	seg, err := MarshalUDP(src, dst, 1000, 2000, []byte{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		corrupt := append([]byte(nil), seg...)
		i := rng.Intn(len(corrupt))
		corrupt[i] ^= 1 << uint(rng.Intn(8))
		if _, _, err := ParseUDP(src, dst, corrupt); err == nil {
			// A flip in the length field can truncate the payload such
			// that the checksum still fails; any success is a bug.
			t.Errorf("trial %d: corruption at byte %d undetected", trial, i)
		}
	}
	// Wrong pseudo-header (different destination) must also fail.
	if _, _, err := ParseUDP(src, MustParseAddr("2001:db8::3"), seg); err == nil {
		t.Error("wrong destination accepted")
	}
}

func TestUDPParseErrors(t *testing.T) {
	src, dst := Loopback, Loopback
	if _, _, err := ParseUDP(src, dst, []byte{1, 2, 3}); err == nil {
		t.Error("short segment accepted")
	}
	seg, err := MarshalUDP(src, dst, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	zeroCk := append([]byte(nil), seg...)
	zeroCk[6], zeroCk[7] = 0, 0
	if _, _, err := ParseUDP(src, dst, zeroCk); err == nil {
		t.Error("zero checksum accepted over IPv6")
	}
}

func TestUDPChecksumNeverZero(t *testing.T) {
	// RFC 768: a computed checksum of zero is transmitted as all ones.
	// Find any case via property: checksum is never 0 on the wire.
	f := func(sp, dp uint16, payload []byte) bool {
		seg, err := MarshalUDP(Loopback, Loopback, sp, dp, payload)
		if err != nil {
			return len(payload) > 0xffff-8
		}
		ck := uint16(seg[6])<<8 | uint16(seg[7])
		return ck != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

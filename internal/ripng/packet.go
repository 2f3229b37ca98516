// Package ripng implements the Routing Information Protocol for IPv6
// (RIPng, RFC 2080) — the protocol the paper's router runs to build and
// maintain its routing table: packet encoding, the distance-vector
// update rules with split horizon and poisoned reverse, and the
// update/timeout/garbage-collection timer machinery. The engine is
// deterministic: time is injected, and outgoing packets are collected by
// the caller rather than sent on real sockets.
//
// A response is exported once, however many interfaces send it: each
// route at its own metric, beside the interface split horizon poisons
// it on (OutPacket.PoisonOn). On the wire, WrapUDP encodes each queued
// packet once, as a base frame in a buffer the caller owns (the mesh
// takes it from its frame pool and returns it when the tick's frames are
// sent), and DeriveUDP makes every interface's frame from that base: a
// copy with the source address and the poisoned metric bytes rewritten
// and the UDP checksum updated for just those words (RFC 1624 eqn. 3).
// UnwrapUDP verifies the checksum and decodes the RTEs in one sweep.
package ripng

import (
	"encoding/binary"
	"fmt"

	"taco/internal/bits"
	"taco/internal/ipv6"
)

// Protocol constants (RFC 2080).
const (
	// Port is the UDP port RIPng listens on.
	Port = 521
	// VersionRIPng is the protocol version.
	VersionRIPng = 1
	// CommandRequest asks a router for (part of) its table.
	CommandRequest = 1
	// CommandResponse carries routing table entries.
	CommandResponse = 2
	// Infinity is the unreachable metric.
	Infinity = 16
	// NextHopMetric marks a next-hop RTE (RFC 2080 §2.1.1).
	NextHopMetric = 0xff
	// RTEBytes is the wire size of one routing table entry.
	RTEBytes = 20
	// HeaderBytes is the wire size of the packet header.
	HeaderBytes = 4
	// MaxRTEsPerPacket keeps packets under a 1500-byte IPv6 MTU
	// (RFC 2080 §2.1: (MTU - headers) / 20).
	MaxRTEsPerPacket = 70
	// MaxFrameBytes is the largest frame WrapUDP builds for a packet of
	// at most MaxRTEsPerPacket entries: 1 452 bytes.
	MaxFrameBytes = ipv6.HeaderBytes + ipv6.UDPHeaderBytes + HeaderBytes + MaxRTEsPerPacket*RTEBytes
)

// RTE is one routing table entry on the wire.
type RTE struct {
	Prefix bits.Prefix
	Tag    uint16
	Metric uint8
}

// Packet is a RIPng request or response.
type Packet struct {
	Command uint8
	RTEs    []RTE
}

// Marshal encodes p into wire form.
func (p Packet) Marshal() []byte {
	return p.appendTo(make([]byte, 0, p.wireLen()))
}

func (p Packet) wireLen() int { return HeaderBytes + RTEBytes*len(p.RTEs) }

// appendTo appends p's wire form to out.
func (p Packet) appendTo(out []byte) []byte {
	out = append(out, p.Command, VersionRIPng, 0, 0)
	for _, r := range p.RTEs {
		out = binary.BigEndian.AppendUint64(out, r.Prefix.Addr.Hi)
		out = binary.BigEndian.AppendUint64(out, r.Prefix.Addr.Lo)
		out = append(out, byte(r.Tag>>8), byte(r.Tag), byte(r.Prefix.Len), r.Metric)
	}
	return out
}

// Parse decodes a RIPng packet. Its RTEs are decoded into rtes' storage
// when it has room for them and into a new exact-size slice otherwise;
// pass nil for a fresh one.
func Parse(rtes []RTE, b []byte) (Packet, error) {
	if len(b) < HeaderBytes {
		return Packet{}, fmt.Errorf("ripng: packet of %d bytes too short", len(b))
	}
	if b[1] != VersionRIPng {
		return Packet{}, fmt.Errorf("ripng: version %d unsupported", b[1])
	}
	cmd := b[0]
	if cmd != CommandRequest && cmd != CommandResponse {
		return Packet{}, fmt.Errorf("ripng: unknown command %d", cmd)
	}
	body := b[HeaderBytes:]
	if len(body)%RTEBytes != 0 {
		return Packet{}, fmt.Errorf("ripng: body of %d bytes not a multiple of %d", len(body), RTEBytes)
	}
	if n := len(body) / RTEBytes; cap(rtes) < n {
		rtes = make([]RTE, 0, n)
	}
	p := Packet{Command: cmd, RTEs: rtes[:0]}
	for off := 0; off < len(body); off += RTEBytes {
		addr := bits.Word128{
			Hi: binary.BigEndian.Uint64(body[off:]),
			Lo: binary.BigEndian.Uint64(body[off+8:]),
		}
		ln := int(body[off+18])
		metric := body[off+19]
		if metric != NextHopMetric {
			if ln > 128 {
				return Packet{}, fmt.Errorf("ripng: prefix length %d", ln)
			}
			if metric < 1 || metric > Infinity {
				return Packet{}, fmt.Errorf("ripng: metric %d out of range", metric)
			}
		}
		p.RTEs = append(p.RTEs, RTE{
			Prefix: bits.MakePrefix(addr, ln),
			Tag:    uint16(body[off+16])<<8 | uint16(body[off+17]),
			Metric: metric,
		})
	}
	return p, nil
}

// WholeTableRequest returns the RFC 2080 §2.4.1 "send me everything"
// request: one RTE of ::/0 with metric Infinity.
func WholeTableRequest() Packet {
	return Packet{Command: CommandRequest, RTEs: []RTE{{
		Prefix: bits.MakePrefix(bits.Zero128, 0),
		Metric: Infinity,
	}}}
}

// IsWholeTableRequest recognises the request above.
func IsWholeTableRequest(p Packet) bool {
	return p.Command == CommandRequest && len(p.RTEs) == 1 &&
		p.RTEs[0].Prefix.Len == 0 && p.RTEs[0].Metric == Infinity &&
		p.RTEs[0].Prefix.Addr.IsZero()
}

// WrapUDP encapsulates a RIPng packet in UDP+IPv6 for transmission from
// src (a link-local address) to dst. The frame is built in one buffer —
// buf's storage when it has room for the frame, a new exact-size one
// otherwise (pass nil): IPv6 header, UDP header with a zero checksum,
// RIPng body, then the checksum patched in over the finished body.
func WrapUDP(buf []byte, src, dst ipv6.Addr, p Packet) ([]byte, error) {
	const udpOff, bodyOff = ipv6.HeaderBytes, ipv6.HeaderBytes + ipv6.UDPHeaderBytes
	udpLen := ipv6.UDPHeaderBytes + p.wireLen()
	if udpLen > 0xffff {
		return nil, fmt.Errorf("ripng: %d RTEs do not fit one UDP datagram", len(p.RTEs))
	}
	h := ipv6.Header{
		PayloadLen: uint16(udpLen),
		NextHeader: ipv6.ProtoUDP,
		HopLimit:   255, // RFC 2080 §2.5: multicast updates use hop limit 255
		Src:        src,
		Dst:        dst,
	}
	uh := ipv6.UDPHeader{SrcPort: Port, DstPort: Port, Length: uint16(udpLen)}
	if cap(buf) < udpOff+udpLen {
		buf = make([]byte, 0, udpOff+udpLen)
	}
	out := h.Marshal(buf[:0])
	out = binary.BigEndian.AppendUint16(out, uh.SrcPort)
	out = binary.BigEndian.AppendUint16(out, uh.DstPort)
	out = binary.BigEndian.AppendUint16(out, uh.Length)
	out = p.appendTo(append(out, 0, 0))
	binary.BigEndian.PutUint16(out[udpOff+6:], ipv6.UDPChecksum(src, dst, uh, out[bodyOff:]))
	return out, nil
}

// DeriveUDP builds in buf — buf's storage when it has room, a new
// exact-size buffer otherwise — the frame WrapUDP(buf, src, dst, p)
// would build for p, the packet op sends on iface: op.Pkt with every RTE
// that op.PoisonOn puts on iface at metric Infinity. It starts from
// base, a frame WrapUDP built for op.Pkt to dst from any source: it
// copies base, rewrites the source address and the metric of every RTE
// poisoned on iface, and updates the UDP
// checksum for just those words (RFC 1624 eqn. 3: HC' = ~(~HC + ~m +
// m')), keeping UDP's rule that a computed 0 goes out as 0xffff.
func DeriveUDP(buf, base []byte, src ipv6.Addr, op OutPacket, iface int) []byte {
	const csumOff, rteOff = ipv6.HeaderBytes + 6, ipv6.HeaderBytes + ipv6.UDPHeaderBytes + HeaderBytes
	if cap(buf) < len(base) {
		buf = make([]byte, len(base))
	}
	out := buf[:len(base)]
	copy(out, base)
	// Every term is ~old + new over a 32- or 16-bit word: 2^32-1 and
	// 2^16-1 are both 0 modulo 0xffff, so each adds new - old to the
	// one's-complement sum.
	acc := uint64(^binary.BigEndian.Uint16(out[csumOff:]))
	sb := src.Bytes()
	for i := 8; i < 24; i += 4 {
		acc += uint64(^binary.BigEndian.Uint32(out[i:])) + uint64(binary.BigEndian.Uint32(sb[i-8:]))
	}
	copy(out[8:24], sb[:])
	for i, f := range op.PoisonOn {
		if int(f) != iface {
			continue
		}
		w := rteOff + i*RTEBytes + 18 // prefix length, metric
		old := binary.BigEndian.Uint16(out[w:])
		acc += uint64(^old) + uint64(old&0xff00|Infinity)
		out[w+1] = Infinity
	}
	c := ^fold(acc)
	if c == 0 {
		c = 0xffff
	}
	binary.BigEndian.PutUint16(out[csumOff:], c)
	return out
}

// fold reduces a one's-complement accumulator to 16 bits.
func fold(acc uint64) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return uint16(acc)
}

// UnwrapUDP extracts a RIPng packet from a full IPv6 datagram, verifying
// the UDP checksum and port. The RTEs are decoded as Parse decodes them,
// into rtes' storage when it has room. A datagram of the shape WrapUDP
// builds — UDP straight after the fixed header — is checksummed and
// decoded in one sweep; any other shape, and any frame that sweep
// rejects, takes the two-step path (ipv6.ParseUDP, then Parse), whose
// error it returns.
func UnwrapUDP(rtes []RTE, datagram []byte) (src ipv6.Addr, p Packet, err error) {
	if src, p, ok := unwrapOnePass(rtes, datagram); ok {
		return src, p, nil
	}
	return unwrapTwoStep(rtes, datagram)
}

// unwrapOnePass decodes the RTEs and sums the UDP checksum in the same
// loads. It accepts exactly the frames unwrapTwoStep accepts, and
// returns ok false for everything else.
func unwrapOnePass(rtes []RTE, d []byte) (src ipv6.Addr, p Packet, ok bool) {
	const udpOff, bodyOff = ipv6.HeaderBytes, ipv6.HeaderBytes + ipv6.UDPHeaderBytes
	if len(d) < bodyOff+HeaderBytes || d[0]>>4 != ipv6.Version || d[6] != ipv6.ProtoUDP {
		return src, p, false
	}
	udpLen := int(binary.BigEndian.Uint16(d[udpOff+4:]))
	bodyLen := udpLen - ipv6.UDPHeaderBytes - HeaderBytes
	if udpLen > len(d)-udpOff || bodyLen < 0 || bodyLen%RTEBytes != 0 ||
		binary.BigEndian.Uint16(d[udpOff+2:]) != Port || binary.BigEndian.Uint16(d[udpOff+6:]) == 0 {
		return src, p, false
	}
	cmd := d[bodyOff]
	if d[bodyOff+1] != VersionRIPng || cmd != CommandRequest && cmd != CommandResponse {
		return src, p, false
	}
	// The sum covers the pseudo-header (both addresses, the UDP length
	// and protocol), the UDP header with its checksum, and the RIPng
	// packet: 0xffff when the checksum holds.
	src = ipv6.Addr{Hi: binary.BigEndian.Uint64(d[8:]), Lo: binary.BigEndian.Uint64(d[16:])}
	acc := uint64(udpLen) + ipv6.ProtoUDP + uint64(binary.BigEndian.Uint32(d[bodyOff:]))
	for off := 8; off < bodyOff; off += 8 { // addresses, UDP header
		w := binary.BigEndian.Uint64(d[off:])
		acc += w>>32 + w&0xffffffff
	}
	n := bodyLen / RTEBytes
	if cap(rtes) < n {
		rtes = make([]RTE, 0, n)
	}
	p = Packet{Command: cmd, RTEs: rtes[:n]}
	for i, off := 0, bodyOff+HeaderBytes; i < n; i, off = i+1, off+RTEBytes {
		hi := binary.BigEndian.Uint64(d[off:])
		lo := binary.BigEndian.Uint64(d[off+8:])
		tail := binary.BigEndian.Uint32(d[off+16:]) // tag, prefix length, metric
		acc += hi>>32 + hi&0xffffffff + lo>>32 + lo&0xffffffff + uint64(tail)
		ln, metric := int(tail>>8&0xff), uint8(tail)
		if metric != NextHopMetric && (ln > 128 || metric < 1 || metric > Infinity) {
			return src, p, false
		}
		p.RTEs[i] = RTE{
			Prefix: bits.MakePrefix(bits.Word128{Hi: hi, Lo: lo}, ln),
			Tag:    uint16(tail >> 16),
			Metric: metric,
		}
	}
	return src, p, fold(acc) == 0xffff
}

// unwrapTwoStep is UnwrapUDP in two passes: the UDP checksum over the
// segment, then Parse. It handles every shape, extension headers
// included, and is the reference the one-pass decoder is fuzzed against.
func unwrapTwoStep(rtes []RTE, datagram []byte) (src ipv6.Addr, p Packet, err error) {
	h, err := ipv6.ParseHeader(datagram)
	if err != nil {
		return src, p, err
	}
	proto, off, err := ipv6.UpperLayer(datagram)
	if err != nil {
		return src, p, err
	}
	if proto != ipv6.ProtoUDP {
		return src, p, fmt.Errorf("ripng: datagram is not UDP (proto %d)", proto)
	}
	uh, payload, err := ipv6.ParseUDP(h.Src, h.Dst, datagram[off:])
	if err != nil {
		return src, p, err
	}
	if uh.DstPort != Port {
		return src, p, fmt.Errorf("ripng: UDP port %d, want %d", uh.DstPort, Port)
	}
	pkt, err := Parse(rtes, payload)
	if err != nil {
		return src, p, err
	}
	return h.Src, pkt, nil
}

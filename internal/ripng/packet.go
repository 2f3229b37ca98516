// Package ripng implements the Routing Information Protocol for IPv6
// (RIPng, RFC 2080) — the protocol the paper's router runs to build and
// maintain its routing table: packet encoding, the distance-vector
// update rules with split horizon and poisoned reverse, and the
// update/timeout/garbage-collection timer machinery. The engine is
// deterministic: time is injected, and outgoing packets are collected by
// the caller rather than sent on real sockets.
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

// Parse decodes a RIPng packet.
func Parse(b []byte) (Packet, error) {
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
	p := Packet{Command: cmd}
	if len(body) > 0 {
		p.RTEs = make([]RTE, 0, len(body)/RTEBytes)
	}
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
// src (a link-local address) to dst. The frame is built in one buffer:
// IPv6 header, UDP header with a zero checksum, RIPng body, then the
// checksum patched in over the finished body.
func WrapUDP(src, dst ipv6.Addr, p Packet) ([]byte, error) {
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
	out := h.Marshal(make([]byte, 0, udpOff+udpLen))
	out = binary.BigEndian.AppendUint16(out, uh.SrcPort)
	out = binary.BigEndian.AppendUint16(out, uh.DstPort)
	out = binary.BigEndian.AppendUint16(out, uh.Length)
	out = p.appendTo(append(out, 0, 0))
	binary.BigEndian.PutUint16(out[udpOff+6:], ipv6.UDPChecksum(src, dst, uh, out[bodyOff:]))
	return out, nil
}

// UnwrapUDP extracts a RIPng packet from a full IPv6 datagram, verifying
// the UDP checksum and port.
func UnwrapUDP(datagram []byte) (src ipv6.Addr, p Packet, err error) {
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
	pkt, err := Parse(payload)
	if err != nil {
		return src, p, err
	}
	return h.Src, pkt, nil
}

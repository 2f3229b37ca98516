package ipv6

import (
	"encoding/binary"
	"fmt"
)

// UDPHeaderBytes is the fixed UDP header size.
const UDPHeaderBytes = 8

// UDPHeader is the RFC 768 header as used over IPv6 (checksum mandatory).
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16 // header + payload bytes
	Checksum         uint16
}

// checksumFold computes the 16-bit one's-complement sum of b (padded to
// even length) added to an initial partial sum. It adds 8 bytes per step
// as two 32-bit halves into a 64-bit accumulator — 2^16 is 1 modulo
// 0xffff, so wider words sum to the same residue — and folds the carries
// back in at the end.
func checksumFold(sum uint32, b []byte) uint32 {
	acc := uint64(sum)
	for ; len(b) >= 8; b = b[8:] {
		w := binary.BigEndian.Uint64(b)
		acc += w>>32 + w&0xffffffff
	}
	for ; len(b) >= 2; b = b[2:] {
		acc += uint64(binary.BigEndian.Uint16(b))
	}
	if len(b) == 1 {
		acc += uint64(b[0]) << 8
	}
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return uint32(acc)
}

// pseudoHeaderSum returns the partial checksum over the RFC 2460 §8.1
// pseudo-header.
func pseudoHeaderSum(src, dst Addr, upperLen uint32, proto uint8) uint32 {
	var sum uint32
	sb, db := src.Bytes(), dst.Bytes()
	sum = checksumFold(sum, sb[:])
	sum = checksumFold(sum, db[:])
	var tail [8]byte
	binary.BigEndian.PutUint32(tail[0:4], upperLen)
	tail[7] = proto
	return checksumFold(sum, tail[:])
}

// UDPChecksum computes the UDP checksum for the given addresses, header
// and payload; a computed value of 0 is transmitted as 0xffff (RFC 768).
func UDPChecksum(src, dst Addr, h UDPHeader, payload []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, uint32(h.Length), ProtoUDP)
	var hb [8]byte
	binary.BigEndian.PutUint16(hb[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(hb[2:4], h.DstPort)
	binary.BigEndian.PutUint16(hb[4:6], h.Length)
	// checksum field taken as zero while computing
	sum = checksumFold(sum, hb[:])
	sum = checksumFold(sum, payload)
	c := ^uint16(sum)
	if c == 0 {
		return 0xffff
	}
	return c
}

// MarshalUDP builds a UDP segment with a valid checksum.
func MarshalUDP(src, dst Addr, srcPort, dstPort uint16, payload []byte) ([]byte, error) {
	if len(payload)+UDPHeaderBytes > 0xffff {
		return nil, fmt.Errorf("ipv6: UDP payload too long")
	}
	h := UDPHeader{SrcPort: srcPort, DstPort: dstPort, Length: uint16(UDPHeaderBytes + len(payload))}
	h.Checksum = UDPChecksum(src, dst, h, payload)
	out := make([]byte, 0, h.Length)
	out = binary.BigEndian.AppendUint16(out, h.SrcPort)
	out = binary.BigEndian.AppendUint16(out, h.DstPort)
	out = binary.BigEndian.AppendUint16(out, h.Length)
	out = binary.BigEndian.AppendUint16(out, h.Checksum)
	out = append(out, payload...)
	return out, nil
}

// ParseUDP decodes and verifies a UDP segment, returning its header and
// payload. src/dst are needed for the pseudo-header verification.
func ParseUDP(src, dst Addr, segment []byte) (UDPHeader, []byte, error) {
	if len(segment) < UDPHeaderBytes {
		return UDPHeader{}, nil, fmt.Errorf("ipv6: UDP segment of %d bytes too short", len(segment))
	}
	h := UDPHeader{
		SrcPort:  binary.BigEndian.Uint16(segment[0:2]),
		DstPort:  binary.BigEndian.Uint16(segment[2:4]),
		Length:   binary.BigEndian.Uint16(segment[4:6]),
		Checksum: binary.BigEndian.Uint16(segment[6:8]),
	}
	if int(h.Length) > len(segment) || h.Length < UDPHeaderBytes {
		return UDPHeader{}, nil, fmt.Errorf("ipv6: UDP length %d inconsistent with segment %d",
			h.Length, len(segment))
	}
	payload := segment[UDPHeaderBytes:h.Length]
	if h.Checksum == 0 {
		return UDPHeader{}, nil, fmt.Errorf("ipv6: UDP checksum 0 is illegal over IPv6")
	}
	if got := UDPChecksum(src, dst, h, payload); got != h.Checksum {
		return UDPHeader{}, nil, fmt.Errorf("ipv6: UDP checksum %04x, want %04x", h.Checksum, got)
	}
	return h, payload, nil
}

// ICMPv6 message types used by the router.
const (
	ICMPDestUnreachable = 1
	ICMPTimeExceeded    = 3
	ICMPEchoRequest     = 128
	ICMPEchoReply       = 129
)

// ICMPMessage is a minimal ICMPv6 message.
type ICMPMessage struct {
	Type, Code uint8
	Body       []byte // everything after the 4-byte type/code/checksum
}

// MarshalICMP builds an ICMPv6 message with a valid checksum.
func MarshalICMP(src, dst Addr, m ICMPMessage) []byte {
	length := uint32(4 + len(m.Body))
	sum := pseudoHeaderSum(src, dst, length, ProtoICMPv6)
	head := []byte{m.Type, m.Code, 0, 0}
	sum = checksumFold(sum, head)
	sum = checksumFold(sum, m.Body)
	c := ^uint16(sum)
	out := make([]byte, 0, length)
	out = append(out, m.Type, m.Code, byte(c>>8), byte(c))
	out = append(out, m.Body...)
	return out
}

// ParseICMP decodes and verifies an ICMPv6 message.
func ParseICMP(src, dst Addr, b []byte) (ICMPMessage, error) {
	if len(b) < 4 {
		return ICMPMessage{}, fmt.Errorf("ipv6: ICMPv6 message too short")
	}
	sum := pseudoHeaderSum(src, dst, uint32(len(b)), ProtoICMPv6)
	sum = checksumFold(sum, b)
	if uint16(sum) != 0xffff {
		return ICMPMessage{}, fmt.Errorf("ipv6: ICMPv6 checksum failed (sum %04x)", sum)
	}
	return ICMPMessage{Type: b[0], Code: b[1], Body: append([]byte(nil), b[4:]...)}, nil
}

// Package ipv6 implements the IPv6 substrate of the router: RFC 2460
// datagram headers and extension-header chains, addresses, UDP with its
// pseudo-header checksum, and datagram validation —
// everything the paper's router must do to datagrams besides the
// routing-table lookup itself.
package ipv6

import (
	"fmt"
	"strconv"
	"strings"

	"taco/internal/bits"
)

// Addr is a 128-bit IPv6 address.
type Addr = bits.Word128

// Well-known addresses.
var (
	// Loopback is ::1.
	Loopback = bits.FromUint64(1)
	// AllNodes is ff02::1, the link-local all-nodes group.
	AllNodes = bits.FromWords(0xff020000, 0, 0, 1)
	// AllRouters is ff02::2, the link-local all-routers group.
	AllRouters = bits.FromWords(0xff020000, 0, 0, 2)
	// AllRIPRouters is ff02::9, the RIPng group (RFC 2080 §2).
	AllRIPRouters = bits.FromWords(0xff020000, 0, 0, 9)
)

// IsMulticast reports whether a is in ff00::/8.
func IsMulticast(a Addr) bool { return a.Hi>>56 == 0xff }

// IsLinkLocal reports whether a is in fe80::/10.
func IsLinkLocal(a Addr) bool { return a.Hi>>54 == 0x3fa }

// ParseAddr parses RFC 4291 textual form, including "::" compression
// ("2001:db8::1"). Embedded IPv4 dotted suffixes are not supported.
func ParseAddr(s string) (Addr, error) {
	if s == "" {
		return Addr{}, fmt.Errorf("ipv6: empty address")
	}
	var head, tail []uint16
	elide := false
	parts := strings.Split(s, "::")
	switch len(parts) {
	case 1:
	case 2:
		elide = true
	default:
		return Addr{}, fmt.Errorf("ipv6: multiple '::' in %q", s)
	}
	parseGroups := func(s string) ([]uint16, error) {
		if s == "" {
			return nil, nil
		}
		var out []uint16
		for _, g := range strings.Split(s, ":") {
			if g == "" {
				return nil, fmt.Errorf("ipv6: empty group in %q", s)
			}
			v, err := strconv.ParseUint(g, 16, 16)
			if err != nil {
				return nil, fmt.Errorf("ipv6: bad group %q", g)
			}
			out = append(out, uint16(v))
		}
		return out, nil
	}
	var err error
	if head, err = parseGroups(parts[0]); err != nil {
		return Addr{}, err
	}
	if elide {
		if tail, err = parseGroups(parts[1]); err != nil {
			return Addr{}, err
		}
	}
	n := len(head) + len(tail)
	if !elide && n != 8 {
		return Addr{}, fmt.Errorf("ipv6: %q has %d groups, want 8", s, n)
	}
	if elide && n > 7 {
		return Addr{}, fmt.Errorf("ipv6: %q too many groups around '::'", s)
	}
	var groups [8]uint16
	copy(groups[:], head)
	copy(groups[8-len(tail):], tail)
	var a Addr
	for i, g := range groups {
		a = a.Or(bits.FromUint64(uint64(g)).Shl(uint(112 - 16*i)))
	}
	return a, nil
}

// MustParseAddr is ParseAddr for constants; it panics on error.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// FormatAddr renders a in canonical RFC 5952 style: lowercase hex,
// longest zero run (≥2 groups) compressed, leftmost run on ties.
func FormatAddr(a Addr) string {
	var groups [8]uint16
	for i := range groups {
		groups[i] = uint16(a.Shr(uint(112 - 16*i)).Lo)
	}
	// Find the longest run of zero groups.
	bestStart, bestLen := -1, 0
	for i := 0; i < 8; {
		if groups[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && groups[j] == 0 {
			j++
		}
		if j-i > bestLen {
			bestStart, bestLen = i, j-i
		}
		i = j
	}
	if bestLen < 2 {
		bestStart = -1
	}
	var b strings.Builder
	for i := 0; i < 8; {
		if i == bestStart {
			b.WriteString("::")
			i += bestLen
			continue
		}
		if i > 0 && !strings.HasSuffix(b.String(), "::") {
			b.WriteString(":")
		}
		fmt.Fprintf(&b, "%x", groups[i])
		i++
	}
	s := b.String()
	if s == "" {
		return "::"
	}
	return s
}

// ParsePrefix parses "addr/len" into a canonical prefix.
func ParsePrefix(s string) (bits.Prefix, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return bits.Prefix{}, fmt.Errorf("ipv6: prefix %q missing '/'", s)
	}
	a, err := ParseAddr(s[:i])
	if err != nil {
		return bits.Prefix{}, err
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil || n < 0 || n > 128 {
		return bits.Prefix{}, fmt.Errorf("ipv6: bad prefix length in %q", s)
	}
	return bits.MakePrefix(a, n), nil
}

// MustParsePrefix is ParsePrefix for constants; it panics on error.
func MustParsePrefix(s string) bits.Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// FormatPrefix renders p as "addr/len" in canonical style.
func FormatPrefix(p bits.Prefix) string {
	return fmt.Sprintf("%s/%d", FormatAddr(p.Addr), p.Len)
}

// Package workload generates deterministic synthetic routing tables and
// IPv6 traffic for the evaluation harness — the stand-in for the paper's
// 10 Gbps ethernet line load (see DESIGN.md §2 for the substitution
// argument). Everything is seeded: identical inputs give identical
// workloads on every run.
package workload

import (
	"fmt"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/rtable"
)

// RNG is a small deterministic generator (splitmix64); math/rand would
// work too, but a local implementation pins the sequence across Go
// versions.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Intn returns a value in [0,n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Word128 returns a random 128-bit word.
func (r *RNG) Word128() bits.Word128 {
	return bits.Word128{Hi: r.Uint64(), Lo: r.Uint64()}
}

// TableSpec parameterises routing-table generation.
type TableSpec struct {
	Entries int
	Ifaces  int
	Seed    uint64
}

// DefaultPrefixLengths is the pool GenerateRoutes draws prefix lengths
// from: a plausible backbone mix, mostly /32–/64 allocations.
var DefaultPrefixLengths = []int{16, 24, 32, 32, 40, 48, 48, 48, 56, 64, 64}

// PaperTableSpec is the paper's evaluation constraint: "a maximum size
// of 100 entries in the routing table".
func PaperTableSpec() TableSpec {
	return TableSpec{Entries: 100, Ifaces: 4, Seed: 2003}
}

// GenerateRoutes produces spec.Entries distinct routes in the global
// unicast space (2000::/3).
func GenerateRoutes(spec TableSpec) []rtable.Route {
	if spec.Ifaces <= 0 {
		spec.Ifaces = 4
	}
	rng := NewRNG(spec.Seed)
	seen := newPrefixSet(spec.Entries)
	routes := make([]rtable.Route, 0, spec.Entries)
	prefixAt := func(i int) bits.Prefix { return routes[i].Prefix }
	for len(routes) < spec.Entries {
		ln := DefaultPrefixLengths[rng.Intn(len(DefaultPrefixLengths))]
		addr := rng.Word128()
		// Force global unicast: 001 in the top three bits.
		addr.Hi = addr.Hi&^(uint64(7)<<61) | uint64(1)<<61
		p := bits.MakePrefix(addr, ln)
		if !seen.add(p, len(routes), prefixAt) {
			continue
		}
		routes = append(routes, rtable.Route{
			Prefix:  p,
			NextHop: linkLocalNeighbor(rng),
			Iface:   rng.Intn(spec.Ifaces),
			Metric:  1 + rng.Intn(14),
		})
	}
	return routes
}

func linkLocalNeighbor(rng *RNG) bits.Word128 {
	return bits.FromWords(0xfe800000, 0, rng.Uint64AsUint32(), rng.Uint64AsUint32())
}

// Uint64AsUint32 returns a random 32-bit value.
func (r *RNG) Uint64AsUint32() uint32 { return uint32(r.Uint64()) }

// AddrInPrefix returns a uniformly random address inside p.
func AddrInPrefix(rng *RNG, p bits.Prefix) bits.Word128 {
	host := rng.Word128().And(bits.Mask(p.Len).Not())
	return p.Addr.Or(host)
}

// TrafficSpec parameterises datagram generation.
type TrafficSpec struct {
	Packets int
	// SizeBytes is the total datagram size (header + payload); the
	// paper-calibration default is 512 (see DESIGN.md).
	SizeBytes int
	// MissRatio is the fraction of datagrams whose destination matches
	// no route.
	MissRatio float64
	// HopLimitOneRatio is the fraction arriving with hop limit 1, which
	// a router must not forward.
	HopLimitOneRatio float64
	Seed             uint64
}

// PaperPacketBytes is the datagram size assumed when converting the
// paper's 10 Gbps line rate into a packet rate.
const PaperPacketBytes = 512

// PaperTrafficSpec returns the Table 1 traffic model.
func PaperTrafficSpec(packets int) TrafficSpec {
	return TrafficSpec{Packets: packets, SizeBytes: PaperPacketBytes, Seed: 10}
}

// Packet is one generated datagram plus ground truth for verification.
type Packet struct {
	Data []byte
	Seq  int64
	// Dst is the destination address.
	Dst bits.Word128
	// ExpectMiss marks datagrams generated to miss the table.
	ExpectMiss bool
	// ExpectDrop marks datagrams a correct router must not forward
	// (hop limit 1).
	ExpectDrop bool
}

// GenerateTraffic produces datagrams destined to the given routes.
// Destinations are drawn uniformly from the route list with host bits
// randomised; a MissRatio fraction get destinations guaranteed to match
// nothing.
func GenerateTraffic(routes []rtable.Route, spec TrafficSpec) ([]Packet, error) {
	if spec.SizeBytes == 0 {
		spec.SizeBytes = PaperPacketBytes
	}
	if spec.SizeBytes < ipv6.HeaderBytes+1 {
		return nil, fmt.Errorf("workload: datagram size %d too small", spec.SizeBytes)
	}
	rng := NewRNG(spec.Seed ^ 0xdada)
	misses := buildMissSpace(routes)
	out := make([]Packet, 0, spec.Packets)
	// BuildDatagram copies the payload, so one buffer serves every datagram.
	payload := make([]byte, spec.SizeBytes-ipv6.HeaderBytes)
	for i := 0; i < spec.Packets; i++ {
		var dst bits.Word128
		expectMiss := false
		if len(routes) == 0 || rng.Float64() < spec.MissRatio {
			dst = misses.pick(rng)
			expectMiss = true
		} else {
			r := routes[rng.Intn(len(routes))]
			dst = AddrInPrefix(rng, r.Prefix)
		}
		hop := uint8(ipv6.MaxHopLimit)
		expectDrop := false
		if rng.Float64() < spec.HopLimitOneRatio {
			hop = 1
			expectDrop = true
		}
		src := bits.FromWords(0x20010000, 0xfeed0000, rng.Uint64AsUint32(), rng.Uint64AsUint32())
		for j := range payload {
			payload[j] = byte(rng.Uint64())
		}
		h := ipv6.Header{HopLimit: hop, Src: src, Dst: dst}
		d, err := ipv6.BuildDatagram(h, nil, ipv6.ProtoNoNext, payload)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		out = append(out, Packet{
			Data: d, Seq: int64(i), Dst: dst,
			ExpectMiss: expectMiss, ExpectDrop: expectDrop,
		})
	}
	return out, nil
}

// missSpace finds addresses outside every route (rejection sampling in
// the 3000::/4 region, falling back to exhaustive checking).
type missSpace struct {
	routes []rtable.Route
}

func buildMissSpace(routes []rtable.Route) *missSpace { return &missSpace{routes: routes} }

func (m *missSpace) pick(rng *RNG) bits.Word128 {
	for tries := 0; tries < 1000; tries++ {
		a := rng.Word128()
		a.Hi = a.Hi&^(uint64(0xf)<<60) | uint64(3)<<60 // 3000::/4
		hit := false
		for _, r := range m.routes {
			if r.Prefix.Contains(a) {
				hit = true
				break
			}
		}
		if !hit {
			return a
		}
	}
	// Extremely broad tables (e.g. ::/0) have no misses; return anything.
	return rng.Word128()
}

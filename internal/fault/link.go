package fault

import (
	"sort"

	"taco/internal/bits"
	"taco/internal/ripng"
	"taco/internal/workload"
)

// FlapEvent is one scheduled link-state change.
type FlapEvent struct {
	At int64 // time (caller's unit: ticks, packet index, seconds)
	Up bool
}

// LinkStats counts what a faulty link did to the traffic through it.
type LinkStats struct {
	Sent       int64 // frames that made it through (possibly corrupted)
	LostDown   int64 // frames discarded while the link was down
	LostRandom int64 // frames lost to the random loss rate
	Corrupted  int64 // frames delivered with a flipped bit
}

// Link models the wire in front of one line card: a deterministic flap
// schedule plus seeded random loss and corruption. The link starts up;
// the latest scheduled event at or before the current time decides its
// state.
type Link struct {
	// Loss is the per-frame probability of silent loss while up.
	Loss float64
	// Corrupt is the per-frame probability of a single-bit flip.
	Corrupt float64

	events []FlapEvent
	rng    *workload.RNG
	stats  LinkStats
}

// NewLink returns a seeded link with no faults configured.
func NewLink(seed uint64) *Link {
	return &Link{rng: workload.NewRNG(seed)}
}

// Schedule adds a flap event, keeping the schedule sorted by time
// (stable for equal times, so later calls win ties).
func (l *Link) Schedule(at int64, up bool) {
	l.events = append(l.events, FlapEvent{At: at, Up: up})
	sort.SliceStable(l.events, func(i, j int) bool { return l.events[i].At < l.events[j].At })
}

// Up reports the link state at the given time.
func (l *Link) Up(now int64) bool {
	up := true
	for _, e := range l.events {
		if e.At > now {
			break
		}
		up = e.Up
	}
	return up
}

// Transmit passes one frame across the link at the given time. It
// returns the frame (a corrupted copy when the corruption fault fires,
// so the caller's original bytes are never aliased) and whether it
// arrived at all. A nil *Link is a perfect wire.
func (l *Link) Transmit(now int64, d []byte) ([]byte, bool) {
	if l == nil {
		return d, true
	}
	if !l.Up(now) {
		l.stats.LostDown++
		return nil, false
	}
	if l.Loss > 0 && l.rng.Float64() < l.Loss {
		l.stats.LostRandom++
		return nil, false
	}
	if l.Corrupt > 0 && l.rng.Float64() < l.Corrupt && len(d) > 0 {
		c := append([]byte(nil), d...)
		bit := l.rng.Intn(len(c) * 8)
		c[bit/8] ^= 1 << (bit % 8)
		l.stats.Corrupted++
		l.stats.Sent++
		return c, true
	}
	l.stats.Sent++
	return d, true
}

// Stats returns the link's fault counters.
func (l *Link) Stats() LinkStats {
	if l == nil {
		return LinkStats{}
	}
	return l.stats
}

// PoisonStorm builds the response flood a dying (or malicious) peer
// emits: every given prefix advertised at metric Infinity, split across
// MTU-sized packets. Feeding these to an Engine must poison exactly the
// routes it learned from that peer and nothing else.
func PoisonStorm(prefixes []bits.Prefix) []ripng.Packet {
	var out []ripng.Packet
	for len(prefixes) > 0 {
		n := len(prefixes)
		if n > ripng.MaxRTEsPerPacket {
			n = ripng.MaxRTEsPerPacket
		}
		p := ripng.Packet{Command: ripng.CommandResponse}
		for _, pfx := range prefixes[:n] {
			p.RTEs = append(p.RTEs, ripng.RTE{Prefix: pfx, Metric: ripng.Infinity})
		}
		out = append(out, p)
		prefixes = prefixes[n:]
	}
	return out
}

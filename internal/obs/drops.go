package obs

import (
	"encoding/json"

	"taco/internal/ipv6"
)

// DropCounters accumulates discarded datagrams by ipv6.DropReason — the
// fault-injection subsystem's shared drop taxonomy. It is a fixed array
// indexed by reason, so counting a drop is one increment with no map
// lookup, and a zero value is ready to use.
type DropCounters [ipv6.NumDropReasons]int64

// Add counts one drop for the given reason. Out-of-range reasons
// (including DropNone) are ignored rather than corrupting the array.
func (c *DropCounters) Add(r ipv6.DropReason) {
	if r > ipv6.DropNone && r < ipv6.NumDropReasons {
		c[r]++
	}
}

// AddN counts n drops for the given reason.
func (c *DropCounters) AddN(r ipv6.DropReason, n int64) {
	if r > ipv6.DropNone && r < ipv6.NumDropReasons {
		c[r] += n
	}
}

// Merge adds o's counts into c.
func (c *DropCounters) Merge(o DropCounters) {
	for i := range c {
		c[i] += o[i]
	}
}

// Total returns the number of drops across all reasons.
func (c DropCounters) Total() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// Map returns the nonzero counts keyed by reason name — the export
// shape used by the -json metrics and the soak reports.
func (c DropCounters) Map() map[string]int64 { return countMap[ipv6.DropReason](c[:]) }

// MarshalJSON emits the reason-name-keyed map of nonzero counts
// (encoding/json sorts map keys, so the bytes are deterministic).
func (c DropCounters) MarshalJSON() ([]byte, error) { return json.Marshal(c.Map()) }

// UnmarshalJSON accepts the reason-name-keyed map form.
func (c *DropCounters) UnmarshalJSON(b []byte) error {
	return unmarshalCounts[ipv6.DropReason](b, c[:])
}

// countName is the index type of a named count array (DropCounters,
// StallCounters): each index has a stable exposition name.
type countName interface {
	~int | ~uint8
	String() string
}

// countMap returns the nonzero counts keyed by their index's name.
func countMap[K countName](counts []int64) map[string]int64 {
	m := make(map[string]int64)
	for i, v := range counts {
		if v != 0 {
			m[K(i).String()] = v
		}
	}
	return m
}

// unmarshalCounts fills counts from the name-keyed map form; a name the
// map lacks counts zero.
func unmarshalCounts[K countName](b []byte, counts []int64) error {
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for i := range counts {
		counts[i] = m[K(i).String()]
	}
	return nil
}

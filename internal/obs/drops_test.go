package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"taco/internal/ipv6"
)

func TestDropCountersAddBounds(t *testing.T) {
	var c DropCounters
	c.Add(ipv6.DropNoRoute)
	c.Add(ipv6.DropNoRoute)
	c.Add(ipv6.DropNone)            // not a drop
	c.Add(ipv6.DropReason(-1))      // out of range
	c.Add(ipv6.NumDropReasons)      // out of range
	c.Add(ipv6.NumDropReasons + 50) // out of range
	if c[ipv6.DropNoRoute] != 2 {
		t.Errorf("no-route = %d, want 2", c[ipv6.DropNoRoute])
	}
	if got := c.Total(); got != 2 {
		t.Errorf("Total = %d, want 2", got)
	}
}

func TestDropCountersMerge(t *testing.T) {
	var a, b DropCounters
	a[ipv6.DropBadVersion], a[ipv6.DropOversize] = 3, 1
	b[ipv6.DropBadVersion], b[ipv6.DropQueueOverflow] = 2, 5
	a.Merge(b)
	if a[ipv6.DropBadVersion] != 5 || a[ipv6.DropOversize] != 1 || a[ipv6.DropQueueOverflow] != 5 {
		t.Errorf("merged = %v", a)
	}
	if b.Total() != 7 {
		t.Errorf("Merge modified its argument: %v", b)
	}
}

func TestDropCountersMap(t *testing.T) {
	var c DropCounters
	c[ipv6.DropHopLimit], c[ipv6.DropNoRoute] = 4, 2
	m := c.Map()
	if len(m) != 2 {
		t.Fatalf("Map has %d keys, want 2 (zero counts must be omitted): %v", len(m), m)
	}
	if m["hop-limit-exceeded"] != 4 || m["no-route"] != 2 {
		t.Errorf("Map = %v", m)
	}
}

// TestDropCountersJSONRoundTrip: the JSON form is the reason-name map,
// deterministic byte-for-byte, and decodes back to the same array.
func TestDropCountersJSONRoundTrip(t *testing.T) {
	var c DropCounters
	c[ipv6.DropMalformedHeader], c[ipv6.DropLengthMismatch], c[ipv6.DropQueueOverflow] = 1, 9, 3

	first, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := json.Marshal(c)
	if !bytes.Equal(first, second) {
		t.Errorf("marshal not deterministic:\n%s\n%s", first, second)
	}

	var back DropCounters
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Errorf("round trip changed counts:\n%v\n%v", back, c)
	}

	// Unknown reason names are dropped, not an error (forward compat).
	var sparse DropCounters
	if err := json.Unmarshal([]byte(`{"no-route":2,"not-a-reason":9}`), &sparse); err != nil {
		t.Fatal(err)
	}
	if sparse[ipv6.DropNoRoute] != 2 || sparse.Total() != 2 {
		t.Errorf("sparse decode = %v", sparse)
	}
}

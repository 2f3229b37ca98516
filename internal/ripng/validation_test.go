package ripng

import (
	"strings"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
)

// The RFC 2080 §2.4.2 per-entry validation: an invalid RTE is ignored,
// while the valid entries in the same response are still processed.
// One test per rejection path.

// receiveMixed sends bad plus one good RTE and asserts only the good
// one landed in the table.
func receiveMixed(t *testing.T, bad RTE) {
	t.Helper()
	e := newTestEngine(t, 1)
	good := RTE{Prefix: pfx("2001:db8:a::/48"), Metric: 2}
	resp := Packet{Command: CommandResponse, RTEs: []RTE{bad, good}}
	if err := e.Receive(0, ll(9), resp); err != nil {
		t.Fatalf("whole response rejected for one bad RTE: %v", err)
	}
	if _, ok := e.Table().Lookup(ipv6.MustParseAddr("2001:db8:a::1")); !ok {
		t.Error("valid RTE in the same response was not installed")
	}
	if bad.Prefix.Len <= 128 && !bad.Prefix.Addr.IsZero() {
		if _, ok := e.Table().Lookup(bad.Prefix.Addr); ok {
			t.Error("invalid RTE was installed")
		}
	}
}

func TestResponseRejectsMetricZero(t *testing.T) {
	receiveMixed(t, RTE{Prefix: pfx("2001:db8:bad::/48"), Metric: 0})
}

func TestResponseRejectsMetricAboveInfinity(t *testing.T) {
	receiveMixed(t, RTE{Prefix: pfx("2001:db8:bad::/48"), Metric: Infinity + 1})
}

func TestResponseRejectsPrefixLenOver128(t *testing.T) {
	// Parse can't produce this (it validates the wire), but in-memory
	// packets — fault injection, buggy peers modelled in tests — can.
	bad := RTE{Prefix: bits.Prefix{Addr: ipv6.MustParseAddr("2001:db8:bad::"), Len: 129}, Metric: 2}
	receiveMixed(t, bad)
}

func TestResponseFromNonLinkLocalRejected(t *testing.T) {
	e := newTestEngine(t, 1)
	resp := Packet{Command: CommandResponse, RTEs: []RTE{{Prefix: pfx("2001:db8::/32"), Metric: 1}}}
	err := e.Receive(0, ipv6.MustParseAddr("2001:db8::99"), resp)
	if err == nil {
		t.Fatal("response from a global source accepted")
	}
	if !strings.Contains(err.Error(), "link-local") {
		t.Errorf("error does not name the cause: %v", err)
	}
	if _, ok := e.Table().Lookup(ipv6.MustParseAddr("2001:db8::5")); ok {
		t.Error("route installed from an off-link response")
	}
}

func TestNextHopRTENotCountedBad(t *testing.T) {
	// Metric 0xff marks a next-hop RTE: skipped by design, installing
	// nothing, and not taken for a bad RTE: the rest of the response is
	// processed.
	receiveMixed(t, RTE{Prefix: pfx("fe80::1/128"), Metric: NextHopMetric})
}

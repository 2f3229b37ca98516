package fault

import (
	"reflect"
	"testing"

	"taco/internal/ipv6"
	"taco/internal/linecard"
	"taco/internal/workload"
)

func goodDatagram(t *testing.T) []byte {
	t.Helper()
	h := ipv6.Header{
		HopLimit: 64,
		Src:      ipv6.MustParseAddr("2001:db8::1"),
		Dst:      ipv6.MustParseAddr("2001:db8:aaaa::2"),
	}
	d, err := ipv6.BuildDatagram(h, nil, ipv6.ProtoNoNext, make([]byte, 88))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMutatorsProvokeTheirDropReason: each mutator applied to a clean
// forwardable datagram must land in its intended taxonomy bucket under
// the shared classifier (FrameCheck for card-level reasons,
// ClassifyForward for machine-level ones). ExtChain and BitFlip are
// exempt — ExtChain stays forwardable by design, BitFlip can land
// anywhere — so they only have to keep the frame classifiable.
func TestMutatorsProvokeTheirDropReason(t *testing.T) {
	cases := []struct {
		m    Mutator
		want ipv6.DropReason
	}{
		{BadVersion(), ipv6.DropBadVersion},
		{HopLimit(), ipv6.DropHopLimit},
		{LenMismatch(), ipv6.DropLengthMismatch},
		{Oversize(), ipv6.DropOversize},
	}
	for _, tc := range cases {
		// Multiple RNG draws: the verdict must hold for any randomness.
		for seed := uint64(1); seed <= 20; seed++ {
			rng := workload.NewRNG(seed)
			d := tc.m.Mutate(rng, goodDatagram(t))
			r := ipv6.FrameCheck(d, linecard.MaxFrameBytes)
			if r == ipv6.DropNone {
				_, r = ipv6.ClassifyForward(d)
			}
			if r != tc.want {
				t.Errorf("%s seed %d: classified %v, want %v", tc.m.Name(), seed, r, tc.want)
			}
		}
	}
}

func TestTruncateAlwaysDrops(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := workload.NewRNG(seed)
		d := Truncate().Mutate(rng, goodDatagram(t))
		if len(d) >= len(goodDatagram(t)) {
			t.Fatalf("seed %d: truncate did not shorten (%d bytes)", seed, len(d))
		}
		r := ipv6.FrameCheck(d, linecard.MaxFrameBytes)
		if r == ipv6.DropNone {
			_, r = ipv6.ClassifyForward(d)
		}
		// A shortened frame is a runt or a payload-length overrun.
		if r != ipv6.DropMalformedHeader && r != ipv6.DropLengthMismatch {
			t.Errorf("seed %d: truncated frame classified %v", seed, r)
		}
	}
}

func TestExtChainStaysClassifiable(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := workload.NewRNG(seed)
		d := ExtChain().Mutate(rng, goodDatagram(t))
		if r := ipv6.FrameCheck(d, linecard.MaxFrameBytes); r != ipv6.DropNone {
			continue // chain pushed it over the MTU: a legal outcome
		}
		if _, r := ipv6.ClassifyForward(d); r != ipv6.DropNone {
			t.Errorf("seed %d: rebuilt ext-chain datagram classified %v", seed, r)
		}
	}
}

// TestMutatorsDeterministic: the same seed must reproduce the same
// mutated bytes — a failing campaign is a replayable test case.
func TestMutatorsDeterministic(t *testing.T) {
	for _, m := range AllMutators() {
		a := m.Mutate(workload.NewRNG(99), goodDatagram(t))
		b := m.Mutate(workload.NewRNG(99), goodDatagram(t))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different bytes", m.Name())
		}
	}
}

func TestInjectorNilIsPassthrough(t *testing.T) {
	var in *Injector
	d := goodDatagram(t)
	if got := in.Apply(d); &got[0] != &d[0] || len(got) != len(d) {
		t.Error("nil injector did not return its input unchanged")
	}
	if in.Counts() != nil {
		t.Error("nil injector reported activity")
	}
}

func TestInjectorCountsAndDeterminism(t *testing.T) {
	mk := func() *Injector {
		return NewInjector(7, Rule{Mutator: HopLimit(), Prob: 0.5}, Rule{Mutator: BitFlip(), Prob: 0.25})
	}
	a, b := mk(), mk()
	var da, db [][]byte
	for i := 0; i < 200; i++ {
		da = append(da, a.Apply(goodDatagram(t)))
		db = append(db, b.Apply(goodDatagram(t)))
	}
	if !reflect.DeepEqual(da, db) {
		t.Fatal("same-seed injectors diverged")
	}
	counts := a.Counts()
	if counts["hoplimit"] == 0 || counts["bitflip"] == 0 {
		t.Errorf("mutators never fired: %v", counts)
	}
	if counts["hoplimit"] < counts["bitflip"] {
		t.Errorf("0.5-prob mutator fired less than 0.25-prob one: %v", counts)
	}
}

// parseSpecBad are specs ParseSpec must reject; with the accepted specs
// of TestParseSpec they seed FuzzParseSpec.
var parseSpecBad = []string{"nosuch", "truncate:1.5", "truncate:x", "hoplimit:-1", "truncate:NaN", "all:nan"}

func TestParseSpec(t *testing.T) {
	if in, err := ParseSpec("", 1); err != nil || in != nil {
		t.Errorf("empty spec: %v, %v", in, err)
	}
	in, err := ParseSpec("truncate:0.1, hoplimit", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.rules) != 2 || in.rules[0].Prob != 0.1 || in.rules[1].Prob != DefaultProb {
		t.Errorf("rules = %+v", in.rules)
	}
	in, err = ParseSpec("all:0.05", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.rules) != len(AllMutators()) {
		t.Errorf("all expanded to %d rules", len(in.rules))
	}
	for _, r := range in.rules {
		if r.Prob != 0.05 {
			t.Errorf("%s prob = %v", r.Mutator.Name(), r.Prob)
		}
	}
	for _, bad := range parseSpecBad {
		if _, err := ParseSpec(bad, 1); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

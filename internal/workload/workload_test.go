package workload

import (
	"testing"

	"taco/internal/ipv6"
	"taco/internal/rtable"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds identical")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestGenerateRoutes(t *testing.T) {
	spec := PaperTableSpec()
	routes := GenerateRoutes(spec)
	if len(routes) != 100 {
		t.Fatalf("%d routes", len(routes))
	}
	seen := map[string]bool{}
	for _, r := range routes {
		if seen[r.Prefix.String()] {
			t.Errorf("duplicate prefix %v", r.Prefix)
		}
		seen[r.Prefix.String()] = true
		if r.Iface < 0 || r.Iface >= spec.Ifaces {
			t.Errorf("iface %d out of range", r.Iface)
		}
		if r.Metric < 1 || r.Metric > 15 {
			t.Errorf("metric %d out of range", r.Metric)
		}
		// Global unicast space.
		if r.Prefix.Len > 0 && r.Prefix.Addr.Hi>>61 != 1 {
			t.Errorf("prefix %v outside 2000::/3", r.Prefix)
		}
	}
	// Determinism.
	again := GenerateRoutes(spec)
	for i := range routes {
		if routes[i] != again[i] {
			t.Fatal("same spec generated different routes")
		}
	}
}

func TestFillAndLookup(t *testing.T) {
	tbl := rtable.NewSequential()
	if err := rtable.InsertAll(tbl, GenerateRoutes(PaperTableSpec())); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 100 {
		t.Fatalf("table has %d entries", tbl.Len())
	}
}

func TestAddrInPrefix(t *testing.T) {
	rng := NewRNG(3)
	p := ipv6.MustParsePrefix("2001:db8::/32")
	for i := 0; i < 100; i++ {
		if a := AddrInPrefix(rng, p); !p.Contains(a) {
			t.Fatalf("generated address %v outside %v", a, p)
		}
	}
}

func TestGenerateTraffic(t *testing.T) {
	routes := GenerateRoutes(PaperTableSpec())
	spec := PaperTrafficSpec(200)
	spec.MissRatio = 0.25
	spec.HopLimitOneRatio = 0.1
	pkts, err := GenerateTraffic(routes, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 200 {
		t.Fatalf("%d packets", len(pkts))
	}
	misses, drops := 0, 0
	tbl := rtable.NewSequential()
	for _, r := range routes {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pkts {
		if len(p.Data) != PaperPacketBytes {
			t.Fatalf("packet %d is %d bytes", i, len(p.Data))
		}
		h, err := ipv6.ParseHeader(p.Data)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if h.Dst != p.Dst {
			t.Fatalf("packet %d: Dst mismatch", i)
		}
		_, hit := tbl.Lookup(h.Dst)
		if hit == p.ExpectMiss {
			t.Fatalf("packet %d: hit=%v but ExpectMiss=%v", i, hit, p.ExpectMiss)
		}
		if p.ExpectMiss {
			misses++
		}
		if p.ExpectDrop {
			if h.HopLimit != 1 {
				t.Fatalf("packet %d: ExpectDrop with hop limit %d", i, h.HopLimit)
			}
			drops++
		}
		if p.Seq != int64(i) {
			t.Fatalf("packet %d: seq %d", i, p.Seq)
		}
	}
	if misses < 20 || misses > 90 {
		t.Errorf("misses = %d of 200 at ratio 0.25", misses)
	}
	if drops < 5 || drops > 50 {
		t.Errorf("drops = %d of 200 at ratio 0.1", drops)
	}
}

func TestGenerateTrafficErrors(t *testing.T) {
	if _, err := GenerateTraffic(nil, TrafficSpec{Packets: 1, SizeBytes: 10}); err == nil {
		t.Error("tiny datagram size accepted")
	}
}

func TestTrafficDeterministic(t *testing.T) {
	routes := GenerateRoutes(PaperTableSpec())
	a, err := GenerateTraffic(routes, PaperTrafficSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTraffic(routes, PaperTrafficSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if string(a[i].Data) != string(b[i].Data) {
			t.Fatal("traffic not deterministic")
		}
	}
}

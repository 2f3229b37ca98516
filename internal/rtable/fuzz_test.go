// FuzzLPMBackends: coverage-guided differential fuzzing of all seven
// routing-table backends. The input bytes decode into a bounded
// insert/delete/lookup program that every backend executes in lockstep;
// any observable disagreement (lookup result, delete verdict, length,
// final listing) is a crash. Alongside the default-config backends the
// lockstep set carries a minimum-block tiled-TCAM instance, so the
// fuzzer reaches tile splits and merges inside the per-input op budget
// (the default 256-entry block cannot overflow in 256 ops), and a
// bulk-loaded twin of every kind joins it after the input's leading run
// of inserts, which the twin took in one InsertAll (and must not have
// written). `make fuzz-lpm` runs the campaign; the plain test suite
// replays the seed corpus.
package rtable_test

import (
	"bytes"
	"slices"
	"testing"

	"taco/internal/bits"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// One fuzz op is 18 bytes: opcode, prefix length, 16 address bytes.
const fuzzOpSize = 18

// fuzzOp appends one encoded op to buf.
func fuzzOp(buf []byte, op byte, ln int, addr bits.Word128) []byte {
	buf = append(buf, op, byte(ln))
	a := addr.Bytes()
	return append(buf, a[:]...)
}

// fuzzRoute decodes the route an insert op carries.
func fuzzRoute(data []byte) rtable.Route {
	op, ln := data[0], int(data[1])%129
	addr, _ := bits.FromBytes(data[2:fuzzOpSize])
	return rtable.Route{
		Prefix:  bits.Prefix{Addr: addr, Len: ln},
		NextHop: addr.Not(),
		Iface:   int(op>>2) % 4,
		Metric:  1 + int(op>>4),
		Tag:     uint16(ln),
	}
}

// fuzzMaxOps bounds the work per input so the fuzzer explores breadth
// rather than grinding one enormous program.
const fuzzMaxOps = 256

func FuzzLPMBackends(f *testing.F) {
	// Seed corpus: the degenerate and adversarial shapes the checklist
	// calls out — default route over everything, /128 host routes,
	// aliased (host bits set) prefixes, a nested ancestor chain with the
	// ancestor deleted, and a slice of the generated large-table mix.
	var s1 []byte
	s1 = fuzzOp(s1, 0, 0, bits.Word128{})       // insert ::/0
	s1 = fuzzOp(s1, 0, 128, bits.FromUint64(1)) // insert host route
	s1 = fuzzOp(s1, 3, 0, bits.FromUint64(1))   // lookup the host
	s1 = fuzzOp(s1, 3, 0, bits.FromUint64(2))   // lookup -> default
	s1 = fuzzOp(s1, 2, 128, bits.FromUint64(1)) // delete the host
	s1 = fuzzOp(s1, 3, 0, bits.FromUint64(1))   // lookup -> default
	f.Add(s1)

	var s2 []byte
	aliased := bits.Word128{Hi: 0x20010db800000000, Lo: 0xdeadbeef} // host bits dirty
	s2 = fuzzOp(s2, 0, 32, aliased)                                 // canonicalises to 2001:db8::/32
	s2 = fuzzOp(s2, 1, 32, bits.Word128{Hi: 0x20010db8ffffffff})    // alias replaces, not duplicates
	s2 = fuzzOp(s2, 3, 0, bits.Word128{Hi: 0x20010db800000001})     // lookup inside
	s2 = fuzzOp(s2, 2, 32, bits.Word128{Hi: 0x20010db812345678})    // aliased delete
	f.Add(s2)

	var s3 []byte
	base := bits.Word128{Hi: 0x20010db812345678}
	for _, ln := range []int{16, 24, 32, 48, 64} { // nested chain
		s3 = fuzzOp(s3, 0, ln, base)
	}
	s3 = fuzzOp(s3, 2, 16, base) // delete the strict ancestor
	s3 = fuzzOp(s3, 3, 0, base)  // descendants must still win
	f.Add(s3)

	var s4 []byte
	for _, r := range workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: 24, Seed: 5}) {
		s4 = fuzzOp(s4, 0, r.Prefix.Len, r.Prefix.Addr)
	}
	s4 = fuzzOp(s4, 3, 0, base)
	f.Add(s4)

	// s5 overflows the minimum-block tiled-TCAM instance: 140 host
	// routes under one /16 force splits, then deletes walk the merge
	// path back up, with lookups interleaved at both extremes.
	var s5 []byte
	s5 = fuzzOp(s5, 0, 16, base)
	for i := 0; i < 140; i++ {
		s5 = fuzzOp(s5, 0, 128, base.Or(bits.FromUint64(uint64(i))))
	}
	s5 = fuzzOp(s5, 3, 0, base.Or(bits.FromUint64(7)))
	for i := 0; i < 110; i++ { // stay within fuzzMaxOps end to end
		s5 = fuzzOp(s5, 2, 128, base.Or(bits.FromUint64(uint64(i))))
	}
	s5 = fuzzOp(s5, 3, 0, base.Or(bits.FromUint64(7)))
	s5 = fuzzOp(s5, 3, 0, base.Or(bits.FromUint64(130)))
	f.Add(s5)

	// s6/s7 are the bulk-loader differential's adversarial sets: the
	// full nested chain with low-bit siblings, and a set dominated by
	// short covering prefixes (see tiledtcam_bulk_test.go).
	var s6, s7 []byte
	for _, r := range nestedChain() {
		s6 = fuzzOp(s6, 0, r.Prefix.Len, r.Prefix.Addr)
	}
	f.Add(s6)
	for i, r := range coveringSet() {
		if r.Prefix.Len <= 24 || i%8 == 0 {
			s7 = fuzzOp(s7, 0, r.Prefix.Len, r.Prefix.Addr)
		}
	}
	f.Add(s7)

	// s8's leading inserts are canonical and ascending, a batch already
	// in SortedRoutes order: the tree twin keeps it rather than copying
	// it, and the deletes and re-inserts after it make the twin clone it.
	var s8 []byte
	sorted := rtable.SortedRoutes(workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: 24, Seed: 7}))
	for _, r := range sorted {
		s8 = fuzzOp(s8, 0, r.Prefix.Len, r.Prefix.Addr)
	}
	for _, r := range sorted[:4] {
		s8 = fuzzOp(s8, 2, r.Prefix.Len, r.Prefix.Addr)
		s8 = fuzzOp(s8, 3, 0, r.Prefix.Addr)
	}
	s8 = fuzzOp(s8, 1, sorted[0].Prefix.Len, sorted[0].Prefix.Addr)
	s8 = fuzzOp(s8, 3, 0, sorted[0].Prefix.Addr)
	f.Add(s8)

	f.Fuzz(func(t *testing.T, data []byte) {
		tables := make([]rtable.Table, 0, len(rtable.Kinds)+1)
		for _, k := range rtable.Kinds {
			tables = append(tables, rtable.New(k))
		}
		// Minimum block size: splits become reachable within fuzzMaxOps.
		tables = append(tables, rtable.NewTiledTCAM(rtable.TiledTCAMConfig{
			BlockSize: rtable.MinTiledBlockSize + 1, MergeFill: 0.6,
		}))
		ref := tables[0] // sequential scan: the trivially correct oracle

		// The twins take the leading run of inserts in one InsertAll and
		// join the lockstep set where it ends.
		var lead []rtable.Route
		for rest := data; len(rest) >= fuzzOpSize && len(lead) < fuzzMaxOps && rest[0]%4 < 2; rest = rest[fuzzOpSize:] {
			lead = append(lead, fuzzRoute(rest))
		}
		batch := slices.Clone(lead)
		var twins []rtable.Table
		for _, k := range rtable.Kinds {
			tbl := rtable.New(k)
			if bl, ok := tbl.(rtable.BulkLoader); ok {
				if err := bl.InsertAll(lead); err != nil {
					t.Fatalf("%v.InsertAll: %v", k, err)
				}
				twins = append(twins, tbl)
			}
		}
		join := func() { tables, twins = append(tables, twins...), nil }

		ops := 0
		for len(data) >= fuzzOpSize && ops < fuzzMaxOps {
			if ops == len(lead) {
				join()
			}
			cur := data[:fuzzOpSize]
			op, ln := cur[0], int(cur[1])%129
			addr, err := bits.FromBytes(cur[2:])
			if err != nil {
				t.Fatalf("FromBytes: %v", err)
			}
			data = data[fuzzOpSize:]
			ops++

			switch op % 4 {
			case 0, 1: // insert (two opcodes: inserts dominate the mix)
				r := fuzzRoute(cur)
				for _, tbl := range tables {
					if err := tbl.Insert(r); err != nil {
						t.Fatalf("%v.Insert(%v): %v", tbl.Kind(), r, err)
					}
				}
			case 2: // delete
				p := bits.Prefix{Addr: addr, Len: ln}
				want := ref.Delete(p)
				for _, tbl := range tables[1:] {
					if got := tbl.Delete(p); got != want {
						t.Fatalf("%v.Delete(%v) = %v, sequential %v", tbl.Kind(), p, got, want)
					}
				}
			default: // lookup
				want, wantOK := ref.Lookup(addr)
				for _, tbl := range tables[1:] {
					if got, ok := tbl.Lookup(addr); ok != wantOK || got != want {
						t.Fatalf("%v.Lookup(%v) = (%v,%v), sequential (%v,%v)",
							tbl.Kind(), addr, got, ok, want, wantOK)
					}
				}
			}
			for _, tbl := range tables[1:] {
				if got, want := tbl.Len(), ref.Len(); got != want {
					t.Fatalf("%v.Len() = %d, sequential %d", tbl.Kind(), got, want)
				}
			}
		}

		join() // when every op was a leading insert
		if !slices.Equal(lead, batch) {
			t.Fatal("a bulk-loaded twin wrote to the batch it was built from")
		}

		// Final structural agreement, plus a deterministic lookup sweep
		// over every installed prefix boundary.
		want := ref.Routes()
		for _, tbl := range tables[1:] {
			if !sameRoutes(tbl.Routes(), want) {
				t.Fatalf("%v.Routes() diverges from sequential", tbl.Kind())
			}
		}
		for _, r := range want {
			for _, dst := range []bits.Word128{r.Prefix.First(), r.Prefix.Last()} {
				wr, wok := ref.Lookup(dst)
				for _, tbl := range tables[1:] {
					if got, ok := tbl.Lookup(dst); ok != wok || got != wr {
						t.Fatalf("%v.Lookup(%v) = (%v,%v), sequential (%v,%v)",
							tbl.Kind(), dst, got, ok, wr, wok)
					}
				}
			}
		}

		// The surviving route set, bulk-loaded into a fresh minimum-block
		// tiled TCAM, must tile exactly as the insert loop tiles it.
		checkBulkEqualsLoop(t, rtable.TiledTCAMConfig{
			BlockSize: rtable.MinTiledBlockSize, MergeFill: 0.6,
		}, nil, want, 0)
	})
}

// TestFuzzOpEncoding keeps the corpus encoder honest: an encoded op
// round-trips through the decoder's framing.
func TestFuzzOpEncoding(t *testing.T) {
	addr := bits.Word128{Hi: 0x20010db800000000, Lo: 42}
	buf := fuzzOp(nil, 3, 64, addr)
	if len(buf) != fuzzOpSize {
		t.Fatalf("encoded op is %d bytes, want %d", len(buf), fuzzOpSize)
	}
	got, err := bits.FromBytes(buf[2:])
	if err != nil || got != addr {
		t.Fatalf("address round-trip: got %v, %v", got, err)
	}
	if !bytes.Equal(buf[:2], []byte{3, 64}) {
		t.Fatalf("header round-trip: got %v", buf[:2])
	}
}

// White-box equivalence suite for the compressed backend: the
// CRAM-style table is by construction the multibit trie with a
// different child-array representation, so the two must agree not only
// on every lookup result but on every probe count — identical
// per-level histograms for identical operation streams. That strong
// equality is what lets the scaled cycle model treat the compressed
// walk as the multibit walk at a different storage price.
package rtable

import (
	"math/rand"
	"reflect"
	"testing"

	"taco/internal/bits"
)

// cpPair drives a multibit and a compressed table in lockstep.
type cpPair struct {
	mb *MultibitTable
	cp *CompressedTable
}

func newCPPair() cpPair {
	return cpPair{
		mb: NewMultibit(DefaultMultibitConfig()),
		cp: NewCompressed(DefaultMultibitConfig()),
	}
}

func (p cpPair) insert(t *testing.T, r Route) {
	t.Helper()
	if err := p.mb.Insert(r); err != nil {
		t.Fatalf("multibit insert %v: %v", r.Prefix, err)
	}
	if err := p.cp.Insert(r); err != nil {
		t.Fatalf("compressed insert %v: %v", r.Prefix, err)
	}
}

func (p cpPair) delete(t *testing.T, pre bits.Prefix) {
	t.Helper()
	if got, want := p.cp.Delete(pre), p.mb.Delete(pre); got != want {
		t.Fatalf("Delete(%v): compressed %v, multibit %v", pre, got, want)
	}
}

// check asserts full observable equality: lookup result AND per-level
// probe histogram for each destination, plus structural agreement.
func (p cpPair) check(t *testing.T, dests ...bits.Word128) {
	t.Helper()
	for _, dst := range dests {
		p.mb.ResetStats()
		p.cp.ResetStats()
		mr, mok := p.mb.Lookup(dst)
		cr, cok := p.cp.Lookup(dst)
		if mok != cok || mr != cr {
			t.Fatalf("Lookup(%v): compressed (%v,%v), multibit (%v,%v)", dst, cr, cok, mr, mok)
		}
		if ms, cs := p.mb.Stats(), p.cp.Stats(); ms != cs {
			t.Fatalf("Lookup(%v): compressed stats %+v, multibit %+v", dst, cs, ms)
		}
		if mh, ch := p.mb.LevelProbes(), p.cp.LevelProbes(); !reflect.DeepEqual(mh, ch) {
			t.Fatalf("Lookup(%v): compressed level histogram %v, multibit %v", dst, ch, mh)
		}
	}
	if p.mb.Len() != p.cp.Len() {
		t.Fatalf("Len: compressed %d, multibit %d", p.cp.Len(), p.mb.Len())
	}
	mr, cr := p.mb.Routes(), p.cp.Routes()
	if len(mr) != len(cr) {
		t.Fatalf("Routes: compressed %d entries, multibit %d", len(cr), len(mr))
	}
	for i := range mr {
		if mr[i] != cr[i] {
			t.Fatalf("Routes[%d]: compressed %v, multibit %v", i, cr[i], mr[i])
		}
	}
	if p.mb.Depth() != p.cp.Depth() {
		t.Fatalf("Depth: compressed %d, multibit %d", p.cp.Depth(), p.mb.Depth())
	}
}

// TestCompressedMirrorsMultibitEdgeCases replays the edge-case shapes
// of edgecases_test.go against the pair: default route under host
// routes, /128s, ancestor deletion, aliased prefixes.
func TestCompressedMirrorsMultibitEdgeCases(t *testing.T) {
	host := bits.Word128{Hi: 0x20010db800000000, Lo: 1}

	t.Run("default-and-host", func(t *testing.T) {
		p := newCPPair()
		p.insert(t, Route{Prefix: bits.MakePrefix(bits.Word128{}, 0), Iface: 0, Metric: 1})
		p.insert(t, Route{Prefix: bits.MakePrefix(host, 128), Iface: 1, Metric: 1})
		p.check(t, host, host.Or(bits.FromUint64(2)), bits.Word128{Hi: 1})
		p.delete(t, bits.MakePrefix(host, 128))
		p.check(t, host)
		p.delete(t, bits.MakePrefix(bits.Word128{}, 0))
		p.check(t, host)
	})

	t.Run("ancestor-delete", func(t *testing.T) {
		p := newCPPair()
		for _, ln := range []int{16, 24, 32, 48, 64, 128} {
			p.insert(t, Route{Prefix: bits.MakePrefix(host, ln), Iface: ln % 4, Metric: 1})
		}
		p.check(t, host)
		p.delete(t, bits.MakePrefix(host, 16)) // strict ancestor goes
		p.check(t, host)
		p.delete(t, bits.MakePrefix(host, 128)) // deepest goes
		p.check(t, host)
	})

	t.Run("aliased-prefixes", func(t *testing.T) {
		p := newCPPair()
		dirty := host.Or(bits.FromUint64(0xdeadbeef))
		p.insert(t, Route{Prefix: bits.Prefix{Addr: dirty, Len: 32}, Iface: 1, Metric: 1})
		p.insert(t, Route{Prefix: bits.Prefix{Addr: host, Len: 32}, Iface: 2, Metric: 1})
		if p.cp.Len() != 1 {
			t.Fatalf("aliased insert duplicated: Len = %d", p.cp.Len())
		}
		p.check(t, host, dirty)
		p.delete(t, bits.Prefix{Addr: dirty, Len: 32}) // aliased delete
		p.check(t, host)
	})
}

// TestCompressedChurnEqualsMultibit is the long-form property: a
// seeded churn campaign where after every operation both tables agree
// on lookups and probe histograms over a destination panel.
func TestCompressedChurnEqualsMultibit(t *testing.T) {
	p := newCPPair()
	rng := rand.New(rand.NewSource(42))
	base := bits.Word128{Hi: 0x2001000000000000}
	lens := []int{0, 16, 24, 33, 48, 64, 65, 96, 127, 128}

	var live []bits.Prefix
	for step := 0; step < 3000; step++ {
		addr := base.Or(bits.FromUint64(uint64(rng.Intn(2000)))).
			Or(bits.FromUint64(uint64(rng.Intn(16))).Shl(64 - 17))
		if rng.Intn(3) != 0 || len(live) == 0 {
			pre := bits.MakePrefix(addr, lens[rng.Intn(len(lens))])
			p.insert(t, Route{Prefix: pre, NextHop: bits.FromUint64(uint64(step)), Iface: step % 4, Metric: 1 + step%15})
			live = append(live, pre)
		} else {
			i := rng.Intn(len(live))
			p.delete(t, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%100 == 99 {
			dests := make([]bits.Word128, 0, 8)
			for j := 0; j < 8; j++ {
				dests = append(dests, base.Or(bits.FromUint64(uint64(rng.Intn(2200)))))
			}
			p.check(t, dests...)
		}
	}
	p.check(t, base, bits.Word128{})
}

// TestCompressedRankOps unit-tests the bitmap/rank machinery the
// compact child run stands on: under random set and clear, slot
// occupancy and rank equal a naive count over a shadow set — for plain
// bitmaps (strides 4, 6), for ranked ones (9, 10, 16: a per-word
// cumulative count kept after the bitmap), and across word boundaries.
func TestCompressedRankOps(t *testing.T) {
	for _, stride := range []int{4, 6, 9, 10, 16} {
		strides := []int{stride}
		for rest := 128 - stride; rest > 0; rest -= min(rest, 16) {
			strides = append(strides, min(rest, 16))
		}
		tbl := NewCompressed(MultibitConfig{Strides: strides})
		if got, want := tbl.bitmapWords(0) > tbl.words[0], stride >= 9; got != want {
			t.Fatalf("stride %d: rank directory %v, want %v", stride, got, want)
		}
		slots := uint32(1) << stride
		var keys []uint32
		for _, k := range []uint32{0, 1, 63, 64, 65, 4095, 65535} {
			if k < slots {
				keys = append(keys, k)
			}
		}
		rng := rand.New(rand.NewSource(int64(stride)))
		for i := 0; i < 24; i++ {
			keys = append(keys, uint32(rng.Intn(int(slots))))
		}
		set := map[uint32]int32{} // slot -> ref installed there
		check := func(when string) {
			t.Helper()
			for _, k := range keys {
				naive := int32(0)
				for s := range set {
					if s < k {
						naive++
					}
				}
				_, occupied := set[k]
				if has, rank := tbl.slot(0, k); has != occupied || rank != naive {
					t.Fatalf("stride %d %s: slot %d occupied %v rank %d, want %v and %d",
						stride, when, k, has, rank, occupied, naive)
				}
				if root := tbl.nodes[0]; occupied && tbl.kids.data[root.kids+naive] != set[k] {
					t.Fatalf("stride %d %s: ref at rank(%d) = %d, want %d",
						stride, when, k, tbl.kids.data[root.kids+naive], set[k])
				}
			}
			if n := tbl.nodes[0].nKids; int(n) != len(set) || tbl.kidSlots != len(set) {
				t.Fatalf("stride %d %s: %d kids, %d counted, want %d", stride, when, n, tbl.kidSlots, len(set))
			}
		}
		for step := 0; step < 400; step++ {
			k := keys[rng.Intn(len(keys))]
			if _, occupied := set[k]; occupied && rng.Intn(3) == 0 {
				tbl.clearChild(0, k)
				delete(set, k)
				check("after clear")
				continue
			}
			// Set, or replace in place: a replace must not grow the run.
			ref := int32(1000 + step)
			tbl.setChild(0, k, ref)
			set[k] = ref
			check("after set")
		}
	}
}

// TestCompressedMemDims pins the compression claim the estimate layer
// prices: bitmap bits mirror the multibit slot count one-for-one while
// child records only exist for occupied slots.
func TestCompressedMemDims(t *testing.T) {
	p := newCPPair()
	rng := rand.New(rand.NewSource(7))
	base := bits.Word128{Hi: 0x2001000000000000}
	for i := 0; i < 2000; i++ {
		addr := base.Or(bits.FromUint64(uint64(rng.Intn(100000)) << 12))
		pre := bits.MakePrefix(addr, []int{32, 48, 64, 128}[rng.Intn(4)])
		p.insert(t, Route{Prefix: pre, Metric: 1})
	}
	md, cd := p.mb.MemDims(), p.cp.MemDims()
	if mn, _ := p.mb.nodeTotals(); records(cd, "nodes") != mn {
		t.Fatalf("compressed nodes = %d, multibit nodes = %d", records(cd, "nodes"), mn)
	}
	if records(cd, "bitmaps") != records(md, "slots") {
		t.Fatalf("bitmap bits = %d, multibit slots = %d (must mirror 1 bit per slot)",
			records(cd, "bitmaps"), records(md, "slots"))
	}
	if records(cd, "leaves") != records(md, "leaves") {
		t.Fatalf("compressed leaves = %d, multibit leaves = %d", records(cd, "leaves"), records(md, "leaves"))
	}
	if kids := records(cd, "children"); kids >= records(cd, "bitmaps") {
		t.Fatalf("occupied kids %d not sparse against %d slots — compression vacuous",
			kids, records(cd, "bitmaps"))
	} else if kids <= 0 {
		t.Fatal("no occupied child records counted")
	}
}

// CRUD conformance: every backend, plus a tiled TCAM at the minimum
// block size, runs the same add → FIB contains → delete → FIB does not
// contain → re-add scripts (the shape of vpp-agent's IPv6 route CRUD
// suite) against an independent longest-prefix-match oracle.
package rtable_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"taco/internal/bits"
	"taco/internal/rtable"
)

// lpmOracle is the eBPF router's routing table: an array the control
// plane keeps ordered from the longest netmask to the shortest, searched
// by a bounded loop whose first containing entry is the longest match.
// Containment is a shift of the XOR, so it shares no code with
// bits.Mask or Prefix.Contains.
type lpmOracle []rtable.Route

func (o *lpmOracle) insert(r rtable.Route) {
	o.delete(r.Prefix)
	i := sort.Search(len(*o), func(i int) bool { return (*o)[i].Prefix.Len < r.Prefix.Len })
	*o = slices.Insert(*o, i, r)
}

func (o *lpmOracle) delete(p bits.Prefix) bool {
	n := len(*o)
	*o = slices.DeleteFunc(*o, func(r rtable.Route) bool { return r.Prefix == p })
	return len(*o) < n
}

func (o lpmOracle) lookup(a bits.Word128) (rtable.Route, bool) {
	for _, r := range o {
		if a.Xor(r.Prefix.Addr).Shr(uint(128 - r.Prefix.Len)).IsZero() {
			return r, true
		}
	}
	return rtable.Route{}, false
}

// crudStep installs route, or with del set withdraws route.Prefix.
type crudStep struct {
	del   bool
	route rtable.Route
}

func crudRoute(t *testing.T, addr string, n, iface int) rtable.Route {
	return rtable.Route{Prefix: bits.MakePrefix(mustAddr(t, addr), n), NextHop: mustAddr(t, "fd31::1:1:0:0:1"), Iface: iface, Metric: 1}
}

func adds(rs ...rtable.Route) []crudStep {
	steps := make([]crudStep, len(rs))
	for i, r := range rs {
		steps[i] = crudStep{route: r}
	}
	return steps
}

func dels(rs ...rtable.Route) []crudStep {
	steps := adds(rs...)
	for i := range steps {
		steps[i].del = true
	}
	return steps
}

// crudBulk is a few hundred routes dense under one /32, so a
// minimum-block tiled TCAM splits on the adds and merges on the deletes:
// add all, delete two thirds, re-add them, delete all.
func crudBulk(t *testing.T) []crudStep {
	rng := rand.New(rand.NewSource(38))
	base := mustAddr(t, "2001:db8::")
	lens := []int{40, 48, 56, 64, 64, 96, 128}
	var rs []rtable.Route
	for i := 0; i < 300; i++ {
		a := base.Or(bits.Word128{Hi: rng.Uint64() >> 32, Lo: rng.Uint64()})
		rs = append(rs, rtable.Route{Prefix: bits.MakePrefix(a, lens[rng.Intn(len(lens))]), Iface: i % 4, Metric: 1})
	}
	gone := slices.Clone(rs)
	rng.Shuffle(len(gone), func(i, j int) { gone[i], gone[j] = gone[j], gone[i] })
	gone = gone[:200]
	steps := append(adds(rs...), dels(gone...)...)
	steps = append(steps, adds(gone...)...)
	return append(steps, dels(rs...)...)
}

type crudCase struct {
	name  string
	steps []crudStep
}

func crudCases(t *testing.T) []crudCase {
	net1 := crudRoute(t, "fd30:0:0:1::", 64, 1)
	net1b := crudRoute(t, "fd30:0:0:1::", 64, 2)
	r48 := crudRoute(t, "fd30:0:1::", 48, 1)
	r64 := crudRoute(t, "fd30:0:1:2::", 64, 2)
	r128 := crudRoute(t, "fd30:0:1:2::9", 128, 3)
	deflt := crudRoute(t, "::", 0, 9)
	host := crudRoute(t, "fd31::1:1:0:0:2", 128, 5)
	return []crudCase{
		{"add-delete-readd", append(append(adds(net1), dels(net1, net1)...), adds(net1)...)},
		{"replace", append(append(adds(net1, net1b, net1), dels(net1)...), adds(net1b)...)},
		{"delete-covering-keeps-descendants", append(append(adds(r48, r64, r128), dels(r48, r64)...), adds(r48)...)},
		{"default-route", append(append(adds(deflt, host), dels(deflt, deflt)...), adds(deflt)...)},
		{"host-route", append(append(adds(host, deflt), dels(host, host)...), adds(host)...)},
		{"bulk", crudBulk(t)},
	}
}

// probes are addresses at and just past both ends of r's span.
func probes(r rtable.Route) []bits.Word128 {
	first, last := r.Prefix.First(), r.Prefix.Last()
	return []bits.Word128{first, last, first.SubOne(), last.AddOne()}
}

func checkLookups(t *testing.T, tbl rtable.Table, want lpmOracle, step int, rs ...rtable.Route) {
	t.Helper()
	for _, r := range rs {
		for _, a := range probes(r) {
			got, ok := tbl.Lookup(a)
			wr, wok := want.lookup(a)
			if ok != wok || got != wr {
				t.Fatalf("step %d: Lookup(%v) = (%v,%v), oracle (%v,%v)", step, a, got, ok, wr, wok)
			}
		}
	}
}

func runCRUD(t *testing.T, tbl rtable.Table, steps []crudStep) {
	var want lpmOracle
	for i, s := range steps {
		r := s.route
		if s.del {
			if got, w := tbl.Delete(r.Prefix), want.delete(r.Prefix); got != w {
				t.Fatalf("step %d: Delete(%v) = %v, oracle %v", i, r.Prefix, got, w)
			}
			if slices.ContainsFunc(tbl.Routes(), func(x rtable.Route) bool { return x.Prefix == r.Prefix }) {
				t.Fatalf("step %d: FIB still contains %v after delete", i, r.Prefix)
			}
		} else {
			if err := tbl.Insert(r); err != nil {
				t.Fatalf("step %d: Insert(%v): %v", i, r, err)
			}
			want.insert(r)
			if !slices.Contains(tbl.Routes(), r) {
				t.Fatalf("step %d: FIB does not contain %v after add", i, r)
			}
		}
		if tbl.Len() != len(want) {
			t.Fatalf("step %d: Len = %d, oracle %d", i, tbl.Len(), len(want))
		}
		checkLookups(t, tbl, want, i, r)
		if i%64 == 63 || i == len(steps)-1 {
			checkLookups(t, tbl, want, i, want...)
		}
	}
}

type crudBackend struct {
	name string
	new  func() rtable.Table
}

// crudBackends is every kind plus a minimum-block tiled TCAM.
func crudBackends() []crudBackend {
	var backends []crudBackend
	for _, k := range rtable.Kinds {
		backends = append(backends, crudBackend{k.String(), func() rtable.Table { return rtable.New(k) }})
	}
	return append(backends, crudBackend{"tiled-tcam/min-block", func() rtable.Table {
		return rtable.NewTiledTCAM(rtable.TiledTCAMConfig{BlockSize: rtable.MinTiledBlockSize, MergeFill: 0.5})
	}})
}

// TestCRUDConformance runs every script on every backend; the
// minimum-block tiled TCAM must also have split and merged on the bulk
// script, so its deletes crossed real merges.
func TestCRUDConformance(t *testing.T) {
	backends := crudBackends()
	for _, c := range crudCases(t) {
		for _, b := range backends {
			t.Run(c.name+"/"+b.name, func(t *testing.T) {
				tbl := b.new()
				runCRUD(t, tbl, c.steps)
				if tt, ok := tbl.(*rtable.TiledTCAMTable); ok && c.name == "bulk" && tt.Config().BlockSize == rtable.MinTiledBlockSize {
					if st := tt.TileStats(); st.Splits == 0 || st.Merges == 0 {
						t.Fatalf("bulk script made %d splits and %d merges; want both", st.Splits, st.Merges)
					}
				}
			})
		}
	}
}

package ripng

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
)

// exportFor is the packet list iface sends for a response exported
// interface by interface: the routes in store order (the flagged ones
// alone when changedOnly), each at its own metric except those learned
// on iface, which go out at Infinity, cut into MTU-sized packets. It is
// the reference every derived frame is held to.
func exportFor(e *Engine, iface int, changedOnly bool) []Packet {
	var out []Packet
	var cur []RTE
	for _, r := range e.order {
		if changedOnly && !r.changed {
			continue
		}
		m := uint8(r.metric)
		if !r.direct && r.iface == iface {
			m = Infinity
		}
		cur = append(cur, RTE{Prefix: r.prefix, Metric: m, Tag: r.tag})
		if len(cur) == MaxRTEsPerPacket {
			out = append(out, Packet{Command: CommandResponse, RTEs: cur})
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, Packet{Command: CommandResponse, RTEs: cur})
	}
	return out
}

func gateway(f int) ipv6.Addr { return ll(uint64(0x1000 + f)) }

// deriveCase is one random engine: its interface count, route count,
// which interfaces are stubs (nothing is learned on them), and the seed
// of its routes.
type deriveCase struct {
	ifaces, routes int
	stub           []bool
	seed           int64
}

// frameCheck counts what a run compared.
type frameCheck struct {
	frames, zeroSums int
	target           uint16 // checksum field of the periodic update's first frame on the last interface
}

// run builds c's engine — the first route a direct /128 whose last
// address word is knob, ordered first whatever knob is — and drives it
// through a triggered update, a whole-table answer, a second triggered
// update and a periodic one. After each, every frame of the batch on
// every interface, derived from a base WrapUDP built with the last
// interface's address, must equal WrapUDP of exportFor's packet.
func (c deriveCase) run(t *testing.T, knob uint16) frameCheck {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	e := newTestEngine(t, c.ifaces)
	var learned []int // route index -> learning interface, -1 when direct
	var prefixes []bits.Prefix
	for i := 0; i < c.routes; i++ {
		var p bits.Prefix
		if i == 0 {
			p = bits.MakePrefix(bits.Word128{Hi: 0x20010db8 << 32, Lo: uint64(knob)}, 128)
		} else {
			for {
				addr := bits.Word128{Hi: 0x20010db8<<32 | uint64(1+rng.Intn(1<<31)), Lo: rng.Uint64()}
				if p = bits.MakePrefix(addr, 33+rng.Intn(96)); !containsPrefix(prefixes, p) {
					break
				}
			}
		}
		prefixes = append(prefixes, p)
		f := rng.Intn(c.ifaces)
		if i == 0 || i%3 == 0 || c.stub[f] {
			if err := e.AddDirect(p, f); err != nil {
				t.Fatal(err)
			}
			learned = append(learned, -1)
			continue
		}
		rte := RTE{Prefix: p, Metric: uint8(1 + rng.Intn(14)), Tag: uint16(rng.Intn(1 << 16))}
		if err := e.Receive(f, gateway(f), Packet{Command: CommandResponse, RTEs: []RTE{rte}}); err != nil {
			t.Fatal(err)
		}
		learned = append(learned, f)
	}
	if e.RouteCount() != c.routes {
		t.Fatalf("%+v: %d routes stored", c, e.RouteCount())
	}
	var chk frameCheck
	expect := func(step string, wants [][]Packet) {
		t.Helper()
		ops := e.Collect()
		base := make([][]byte, len(ops))
		for i, op := range ops {
			var err error
			if base[i], err = WrapUDP(nil, e.LinkLocal(c.ifaces-1), op.Dst, op.Pkt); err != nil {
				t.Fatal(err)
			}
		}
		dirty := bytes.Repeat([]byte{0xa5}, MaxFrameBytes)
		for f := 0; f < c.ifaces; f++ {
			k := 0
			for i, op := range ops {
				if !op.SentOn(f) {
					continue
				}
				if k == len(wants[f]) {
					t.Fatalf("%+v %s: interface %d sends more than %d packets", c, step, f, k)
				}
				want, err := WrapUDP(nil, e.LinkLocal(f), op.Dst, wants[f][k])
				if err != nil {
					t.Fatal(err)
				}
				buf := dirty
				if k%2 == 1 {
					buf = nil
				}
				if got := DeriveUDP(buf, base[i], e.LinkLocal(f), op, f); !bytes.Equal(got, want) {
					t.Fatalf("%+v %s: interface %d packet %d differs\n got %x\nwant %x", c, step, f, k, got, want)
				}
				chk.frames++
				if sum := binary.BigEndian.Uint16(want[ipv6.HeaderBytes+6:]); sum == 0xffff {
					chk.zeroSums++
				}
				if step == "periodic" && f == c.ifaces-1 && k == 0 {
					chk.target = binary.BigEndian.Uint16(want[ipv6.HeaderBytes+6:])
				}
				k++
			}
			if k != len(wants[f]) {
				t.Fatalf("%+v %s: interface %d sends %d packets, want %d", c, step, f, k, len(wants[f]))
			}
		}
	}
	perIface := func(changedOnly bool) [][]Packet {
		w := make([][]Packet, c.ifaces)
		for f := range w {
			w[f] = exportFor(e, f, changedOnly)
		}
		return w
	}

	w := perIface(true)
	e.Tick(1)
	expect("triggered", w)

	g := rng.Intn(c.ifaces)
	if err := e.Receive(g, ll(99), WholeTableRequest()); err != nil {
		t.Fatal(err)
	}
	w = make([][]Packet, c.ifaces)
	w[g] = exportFor(e, g, false)
	expect("whole-table", w)

	// Move every fifth learned route to a new metric and withdraw every
	// seventh: a triggered update with metric-16 routes in it.
	for i, f := range learned {
		if f < 0 || i%5 != 0 && i%7 != 0 {
			continue
		}
		m := uint8(1 + rng.Intn(14))
		if i%7 == 0 {
			m = Infinity
		}
		rte := RTE{Prefix: prefixes[i], Metric: m, Tag: uint16(i)}
		if err := e.Receive(f, gateway(f), Packet{Command: CommandResponse, RTEs: []RTE{rte}}); err != nil {
			t.Fatal(err)
		}
	}
	w = perIface(true)
	e.Tick(2)
	expect("retriggered", w)

	w = perIface(false)
	e.Tick(DefaultUpdateSeconds)
	expect("periodic", w)
	return chk
}

func containsPrefix(ps []bits.Prefix, p bits.Prefix) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// TestDerivedFramesMatchWrapUDP holds DeriveUDP to WrapUDP on random
// engines: 1–14 interfaces with and without stubs, direct routes and
// routes learned on every interface but the stubs, route counts at each packet
// boundary, triggered, whole-table and periodic responses. Each engine
// is built twice: the second time its knob route is set so the first
// periodic frame on the last interface sums to 0 and goes out as 0xffff
// — the base frame itself when that interface is a stub.
func TestDerivedFramesMatchWrapUDP(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	frames, zeroSums := 0, 0
	n := 0
	for _, ifaces := range []int{1, 2, 3, 7, 12, 14} {
		for _, routes := range []int{0, 1, 69, 70, 71, 140, 141} {
			c := deriveCase{ifaces: ifaces, routes: routes, stub: make([]bool, ifaces), seed: rng.Int63()}
			for f := range c.stub {
				c.stub[f] = rng.Intn(4) == 0
			}
			c.stub[ifaces-1] = n%2 == 0
			if ifaces > 1 {
				c.stub[0] = false
			}
			n++
			t.Run(fmt.Sprintf("ifaces%d/routes%d", ifaces, routes), func(t *testing.T) {
				first := c.run(t, 0)
				frames += first.frames
				if routes == 0 {
					return
				}
				knob := first.target // adding ~S to the sum S makes it 0xffff
				if knob == 0xffff {
					knob = 0
				}
				again := c.run(t, knob)
				if again.target != 0xffff {
					t.Fatalf("knob %#04x: target checksum %#04x, want 0xffff", knob, again.target)
				}
				frames += again.frames
				zeroSums += again.zeroSums
			})
		}
	}
	if frames == 0 || zeroSums == 0 {
		t.Fatalf("%d frames compared, %d with a zero sum", frames, zeroSums)
	}
	t.Logf("%d derived frames equal WrapUDP, %d of them with a zero sum", frames, zeroSums)
}

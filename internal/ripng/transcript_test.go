// Transcript pins: three scripted scenarios hashed packet by packet and
// table by table. The constants were recorded before the engine's route
// store became a sorted array, so any change to what goes on the wire —
// RTE order, packet split, split horizon, trigger timing — or to what
// lands in the forwarding table moves a digest.
package ripng_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/ripng"
	"taco/internal/rtable"
)

// transcript accumulates one scenario's wire and table digests.
type transcript struct {
	wire, tables hash.Hash64
}

func newTranscript() *transcript {
	return &transcript{wire: fnv.New64a(), tables: fnv.New64a()}
}

// packets hashes a batch as the wires carry it: one packet per
// interface, each with split horizon applied.
func (tr *transcript) packets(who int, e *ripng.Engine, ops []ripng.OutPacket) {
	for _, op := range ripng.Expand(ops, e.Ifaces()) {
		fmt.Fprintf(tr.wire, "%d|%d|%s|", who, op.Iface, ipv6.FormatAddr(op.Dst))
		tr.wire.Write(op.Pkt.Marshal())
	}
}

func (tr *transcript) table(who int, t rtable.Table) {
	for _, r := range t.Routes() {
		fmt.Fprintf(tr.tables, "%d|%v|%s|%d|%d|%d\n", who, r.Prefix,
			ipv6.FormatAddr(r.NextHop), r.Iface, r.Metric, r.Tag)
	}
}

func (tr *transcript) check(t *testing.T, wantWire, wantTables uint64) {
	t.Helper()
	if got := tr.wire.Sum64(); got != wantWire {
		t.Errorf("wire digest %#016x, want %#016x", got, wantWire)
	}
	if got := tr.tables.Sum64(); got != wantTables {
		t.Errorf("table digest %#016x, want %#016x", got, wantTables)
	}
}

// wire is one point-to-point link between two engines' interfaces.
type wire struct {
	a, ai, b, bi int
	down         bool
}

// lab is a handful of engines joined by wires and ticked in lockstep.
type lab struct {
	t     *testing.T
	engs  []*ripng.Engine
	wires []*wire
	tr    *transcript
}

func labLL(router, iface int) ipv6.Addr {
	return ipv6.Addr{Hi: 0xfe80 << 48, Lo: uint64(router+1)<<8 | uint64(iface+1)}
}

func newLab(t *testing.T, routers, ifaces int, update, timeout, gc ripng.Clock) *lab {
	l := &lab{t: t, tr: newTranscript()}
	for r := 0; r < routers; r++ {
		ifs := make([]ripng.Iface, ifaces)
		for i := range ifs {
			ifs[i] = ripng.Iface{LinkLocal: labLL(r, i), Cost: 1}
		}
		e := ripng.NewEngine(rtable.NewSequential(), ifs, 0)
		e.SetTimers(update, timeout, gc)
		l.engs = append(l.engs, e)
	}
	return l
}

// step ticks every engine, hashes and delivers what each one emitted,
// then hashes every table.
func (l *lab) step(now ripng.Clock) {
	outs := make([][]ripng.OutPacket, len(l.engs))
	for i, e := range l.engs {
		e.Tick(now)
		outs[i] = e.Collect()
		l.tr.packets(i, e, outs[i])
	}
	deliver := func(from, fromIf, to, toIf int) {
		for _, op := range outs[from] {
			if !op.SentOn(fromIf) {
				continue
			}
			if err := l.engs[to].Receive(toIf, labLL(from, fromIf), op.On(fromIf)); err != nil {
				l.t.Fatal(err)
			}
		}
	}
	for _, w := range l.wires {
		if !w.down {
			deliver(w.a, w.ai, w.b, w.bi)
			deliver(w.b, w.bi, w.a, w.ai)
		}
	}
	for i, e := range l.engs {
		l.tr.table(i, e.Table())
	}
}

func stub(i int) bits.Prefix {
	return bits.MakePrefix(bits.Word128{Hi: 0x20010db8<<32 | uint64(i)<<16}, 48)
}

// Three routers in a line; the far link dies, the far stub times out,
// is poisoned, advertised at metric 16 and garbage-collected; then the
// link heals and the stub is re-learned.
func TestTranscriptLineTimeout(t *testing.T) {
	l := newLab(t, 3, 3, 5, 15, 10)
	l.wires = []*wire{{a: 0, ai: 0, b: 1, bi: 0}, {a: 1, ai: 1, b: 2, bi: 0}}
	for r := 0; r < 3; r++ {
		if err := l.engs[r].AddDirect(stub(r), 2); err != nil {
			t.Fatal(err)
		}
		l.engs[r].Start()
	}
	for now := ripng.Clock(1); now <= 90; now++ {
		switch now {
		case 20:
			l.wires[1].down = true
		case 70:
			l.wires[1].down = false
		}
		l.step(now)
		if now == 69 && (l.engs[0].Table().Len() != 2 || l.engs[0].RouteCount() != 2) {
			t.Fatalf("tick 69: router 0 has %d FIB / %d RIPng routes, want the far stub collected",
				l.engs[0].Table().Len(), l.engs[0].RouteCount())
		}
	}
	if got := l.engs[0].Table().Len(); got != 3 {
		t.Fatalf("router 0 ends with %d routes, want 3", got)
	}
	l.tr.check(t, wantLineWire, wantLineTables)
}

// A triangle with one stub per router: every advertisement carries
// poisoned reverse, and cutting one edge reroutes through the third
// router by triggered updates.
func TestTranscriptPoisonedReverseTriangle(t *testing.T) {
	l := newLab(t, 3, 3, 6, 18, 12)
	l.wires = []*wire{
		{a: 0, ai: 0, b: 1, bi: 0},
		{a: 1, ai: 1, b: 2, bi: 0},
		{a: 2, ai: 1, b: 0, bi: 1},
	}
	for r := 0; r < 3; r++ {
		for s := 0; s < 4; s++ {
			if err := l.engs[r].AddDirect(stub(16*r+s), 2); err != nil {
				t.Fatal(err)
			}
		}
		l.engs[r].Start()
	}
	for now := ripng.Clock(1); now <= 80; now++ {
		if now == 25 {
			l.wires[0].down = true
		}
		l.step(now)
	}
	if got := l.engs[0].Table().Len(); got != 12 {
		t.Fatalf("router 0 ends with %d routes, want 12", got)
	}
	l.tr.check(t, wantTriangleWire, wantTriangleTables)
}

// A 98-route table (direct, learned on the asking interface, learned
// elsewhere; inserted out of order) answers a whole-table request with
// a 70 + 28 split in prefix order, then emits its periodic update.
func TestTranscriptWholeTable98(t *testing.T) {
	l := newLab(t, 1, 3, 30, 180, 120)
	e := l.engs[0]
	for i := 0; i < 98; i++ {
		p := stub((i * 37) % 98) // a permutation of 0..97
		switch i % 3 {
		case 0:
			if err := e.AddDirect(p, 2); err != nil {
				t.Fatal(err)
			}
		default:
			resp := ripng.Packet{Command: ripng.CommandResponse, RTEs: []ripng.RTE{
				{Prefix: p, Metric: uint8(1 + i%14), Tag: uint16(i)},
			}}
			if err := e.Receive(i%3-1, labLL(7, i%3), resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.RouteCount() != 98 {
		t.Fatalf("RouteCount = %d, want 98", e.RouteCount())
	}
	if err := e.Receive(0, labLL(9, 0), ripng.WholeTableRequest()); err != nil {
		t.Fatal(err)
	}
	ops := e.Collect()
	if len(ops) != 2 || len(ops[0].Pkt.RTEs) != 70 || len(ops[1].Pkt.RTEs) != 28 {
		t.Fatalf("whole-table answer split %d packets", len(ops))
	}
	l.tr.packets(0, e, ops)
	l.tr.table(0, e.Table())
	for now := ripng.Clock(1); now <= 31; now += 15 {
		l.step(now)
	}
	l.tr.check(t, wantWholeWire, wantWholeTables)
}

// Recorded on the commit before the route map was replaced.
const (
	wantLineWire       = 0xf4774b05183c3eab
	wantLineTables     = 0xfdf32c0840a09c24
	wantTriangleWire   = 0x8dc0bc8396e5b167
	wantTriangleTables = 0x22df391e694efe95
	wantWholeWire      = 0xf49e49187b5c47de
	wantWholeTables    = 0xbd10c0b15d88d95d
)

package router

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/rtable"
	"taco/internal/tta"
	"taco/internal/workload"
)

// The compiled fast path trusts three promises of a unit's slots
// (tta.SlotReader/SlotWriter/SlotSignal) that the differential wall only
// checks end to end: a read slot always holds what Read returns, a store
// to a write slot is a Write, and every slot pointer outlives Reset. This
// drives every unit of the nine Table 1 router machines and a compute
// machine directly — random writes, then a Clock — on two identical
// machines, one written through Write and one through the slots.

// slotRig is a machine under the slot contract test plus the pieces a
// router machine adds around it.
type slotRig struct {
	m     *tta.Machine
	taco  *TACO // nil for the compute machine
	reset func()
}

func newSlotRig(t *testing.T, cfg fu.Config, compute bool, routes []rtable.Route, pkts []workload.Packet) slotRig {
	t.Helper()
	if compute {
		m, err := fu.NewComputeMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return slotRig{m: m, reset: m.Reset}
	}
	tr, err := NewTACO(cfg, fillTable(t, cfg.Table, routes), nIfaces)
	if err != nil {
		t.Fatal(err)
	}
	tr.AddLocal(routerAddr)
	r := slotRig{m: tr.Machine, taco: tr, reset: tr.Reset}
	r.deliver(pkts)
	return r
}

// deliver queues input for the preprocessing unit, so its DMA, pending
// signal and pop path are live during the random drive.
func (r slotRig) deliver(pkts []workload.Packet) {
	if r.taco == nil {
		return
	}
	for i, p := range pkts {
		r.taco.Deliver(i%nIfaces, linecard.Datagram{Data: p.Data, Seq: p.Seq})
	}
}

// slotSet is every slot pointer of a machine, unit by unit.
type slotSet struct {
	rd  [][]*uint32
	wv  [][]*uint32
	wa  [][]*bool
	sig [][]*bool
}

func slotsOf(m *tta.Machine) slotSet {
	var s slotSet
	for _, u := range m.Units() {
		n, k := len(u.Sockets()), len(u.Signals())
		rd, wv, wa, sig := make([]*uint32, n), make([]*uint32, n), make([]*bool, n), make([]*bool, k)
		for i := 0; i < n; i++ {
			if sr, ok := u.(tta.SlotReader); ok {
				rd[i] = sr.ReadSlot(i)
			}
			if sw, ok := u.(tta.SlotWriter); ok {
				wv[i], wa[i] = sw.WriteSlot(i)
			}
		}
		for i := 0; i < k; i++ {
			if ss, ok := u.(tta.SlotSignal); ok {
				sig[i] = ss.SignalSlot(i)
			}
		}
		s.rd, s.wv, s.wa, s.sig = append(s.rd, rd), append(s.wv, wv), append(s.wa, wa), append(s.sig, sig)
	}
	return s
}

// same reports whether two slot sets name the same storage: pointer
// identity, which reflect.DeepEqual would look through.
func (s slotSet) same(o slotSet) bool {
	for ui := range s.rd {
		for i := range s.rd[ui] {
			if s.rd[ui][i] != o.rd[ui][i] || s.wv[ui][i] != o.wv[ui][i] || s.wa[ui][i] != o.wa[ui][i] {
				return false
			}
		}
		for i := range s.sig[ui] {
			if s.sig[ui][i] != o.sig[ui][i] {
				return false
			}
		}
	}
	return true
}

func readable(k tta.SocketKind) bool { return k == tta.Result || k == tta.Register }

// observe returns everything the interconnect can see of a machine: each
// readable socket through Read and each signal through Signal. With slots
// it first checks each against its slot.
func observe(t *testing.T, m *tta.Machine, s *slotSet, when string) []uint32 {
	t.Helper()
	var out []uint32
	for ui, u := range m.Units() {
		for i, spec := range u.Sockets() {
			if !readable(spec.Kind) {
				continue
			}
			v := u.Read(i)
			if s != nil && s.rd[ui][i] != nil && *s.rd[ui][i] != v {
				t.Fatalf("%s: %s.%s: Read = %#x, *ReadSlot = %#x", when, u.Name(), spec.Name, v, *s.rd[ui][i])
			}
			out = append(out, v)
		}
		for i, name := range u.Signals() {
			v := u.Signal(i)
			if s != nil && s.sig[ui][i] != nil && *s.sig[ui][i] != v {
				t.Fatalf("%s: %s.%s: Signal = %v, *SignalSlot = %v", when, u.Name(), name, v, *s.sig[ui][i])
			}
			if v {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
	}
	return out
}

// drive runs cycles of random socket writes followed by a Clock of every
// unit on both rigs: a through Write, b through its write slots.
func drive(t *testing.T, rng *workload.RNG, a, b slotRig, sa, sb *slotSet, phase string, cycles int) {
	t.Helper()
	for c := 0; c < cycles; c++ {
		when := fmt.Sprintf("%s cycle %d", phase, c)
		before := observe(t, a.m, sa, when)
		for ui, u := range a.m.Units() {
			for i, spec := range u.Sockets() {
				if spec.Kind == tta.Result || rng.Intn(4) != 0 {
					continue
				}
				// Mostly small values, so addresses, indices and shift
				// amounts land in range; sometimes any word.
				v := uint32(rng.Intn(320))
				if rng.Intn(8) == 0 {
					v = uint32(rng.Uint64())
				}
				u.Write(i, v)
				if val, armed := sb.wv[ui][i], sb.wa[ui][i]; val != nil {
					*val, *armed = v, true
				} else {
					b.m.Units()[ui].Write(i, v)
				}
			}
		}
		if after := observe(t, a.m, sa, when+" after writes"); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: a write was visible before Clock", when)
		}
		for ui, u := range a.m.Units() {
			ea, eb := u.Clock(), b.m.Units()[ui].Clock()
			if fmt.Sprint(ea) != fmt.Sprint(eb) {
				t.Fatalf("%s: %s Clock: %v via Write, %v via WriteSlot", when, u.Name(), ea, eb)
			}
		}
		if oa, ob := observe(t, a.m, sa, when), observe(t, b.m, sb, when); !reflect.DeepEqual(oa, ob) {
			t.Fatalf("%s: machines written via Write and via WriteSlot differ:\n%v\n%v", when, oa, ob)
		}
	}
}

func TestSlotContract(t *testing.T) {
	routes, pkts := buildWorkload(t, 24)
	type cell struct {
		cfg     fu.Config
		compute bool
	}
	cells := []cell{{cfg: fu.Config3Bus3FU(0), compute: true}}
	for _, kind := range rtable.PaperKinds {
		for _, cfg := range fu.PaperConfigs(kind) {
			cells = append(cells, cell{cfg: cfg})
		}
	}
	// The sockets and signals derived from other state on demand: the only
	// ones without a slot, and so the only reads and guards the compiled
	// path leaves as interface calls.
	computedRTU := map[rtable.Kind]string{
		rtable.Sequential: "rtu.count", rtable.BalancedTree: "rtu.root", rtable.CAM: "rtu.hit",
	}
	for ci, c := range cells {
		name := fmt.Sprintf("%s/%v", c.cfg.Name, c.cfg.Table)
		if c.compute {
			name = c.cfg.Name + "/compute"
		}
		t.Run(name, func(t *testing.T) {
			rng := workload.NewRNG(uint64(2003 + ci))
			a := newSlotRig(t, c.cfg, c.compute, routes, pkts)
			b := newSlotRig(t, c.cfg, c.compute, routes, pkts)
			sa, sb := slotsOf(a.m), slotsOf(b.m)

			var slotless []string
			for ui, u := range a.m.Units() {
				for i, spec := range u.Sockets() {
					if readable(spec.Kind) && sa.rd[ui][i] == nil {
						slotless = append(slotless, u.Name()+"."+spec.Name)
					}
					if !readable(spec.Kind) && sa.wv[ui][i] == nil {
						t.Errorf("%s.%s: writable socket without a write slot", u.Name(), spec.Name)
					}
				}
				for i, sig := range u.Signals() {
					if sa.sig[ui][i] == nil {
						slotless = append(slotless, u.Name()+"."+sig+" (signal)")
					}
				}
			}
			want := []string{"chk0.r", "chk0.valid (signal)"}
			if !c.compute {
				want = append(want, computedRTU[c.cfg.Table], "liu.mine", "ippu.pending (signal)")
			}
			sort.Strings(slotless)
			sort.Strings(want)
			if !reflect.DeepEqual(slotless, want) {
				t.Errorf("slot-less sockets and signals = %v, want %v", slotless, want)
			}

			drive(t, rng, a, b, &sa, &sb, "power-on", 300)

			// Unit-level Reset, then the owner's Reset: every pointer must
			// survive both, and the machine must be back at power-on.
			for _, r := range []slotRig{a, b} {
				for _, u := range r.m.Units() {
					u.Reset()
				}
			}
			if !slotsOf(a.m).same(sa) || !slotsOf(b.m).same(sb) {
				t.Fatal("a slot pointer moved across Unit.Reset")
			}
			a.deliver(pkts)
			b.deliver(pkts)
			drive(t, rng, a, b, &sa, &sb, "after Unit.Reset", 300)

			a.reset()
			b.reset()
			if !slotsOf(a.m).same(sa) || !slotsOf(b.m).same(sb) {
				t.Fatal("a slot pointer moved across the machine's Reset")
			}
			fresh := newSlotRig(t, c.cfg, c.compute, routes, nil)
			if got, want := observe(t, a.m, &sa, "after Reset"), observe(t, fresh.m, nil, ""); !reflect.DeepEqual(got, want) {
				t.Fatalf("Reset did not return the units to power-on:\n%v\n%v", got, want)
			}
			a.deliver(pkts)
			b.deliver(pkts)
			drive(t, rng, a, b, &sa, &sb, "after Reset", 300)
		})
	}
}

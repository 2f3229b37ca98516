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

// The compiled fast path trusts two promises of a unit's port table
// (tta.PortTable) that the differential wall only checks end to end: a
// store into a socket's (value, armed) storage stays invisible until the
// unit's next Clock — so an instruction that cannot fault may write
// straight through — and every pointer in the table outlives Reset,
// because tta.New resolves the table once. This drives every unit of the
// nine Table 1 router machines and a compute machine directly: random
// writes, then a Clock.

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

// slotsOf lists every pointer in the machine's port tables, unit by
// unit, with whether each socket and line has a getter; two lists are
// equal exactly when they name the same storage.
func slotsOf(m *tta.Machine) []any {
	var out []any
	for _, u := range m.Units() {
		t := u.Ports()
		for _, p := range t.Sockets {
			out = append(out, p.Reg, p.Val, p.Armed, p.Get != nil)
		}
		for _, l := range t.Lines {
			out = append(out, l.Flag, l.Get != nil)
		}
	}
	return out
}

func sameSlots(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// observe returns everything the interconnect can see of a machine:
// each readable socket and each signal line.
func observe(m *tta.Machine) []uint32 {
	var out []uint32
	for _, s := range m.SnapshotSockets() {
		out = append(out, s.Value)
	}
	for _, name := range m.SignalNames() {
		v, _ := m.SignalValue(name)
		if v {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// drive runs cycles of random socket writes, each a store into the
// socket's (value, armed) storage, followed by a Clock of every unit.
func drive(t *testing.T, rng *workload.RNG, r slotRig, phase string, cycles int) {
	t.Helper()
	for c := 0; c < cycles; c++ {
		before := observe(r.m)
		for _, u := range r.m.Units() {
			for _, p := range u.Ports().Sockets {
				if p.Kind == tta.Result || rng.Intn(4) != 0 {
					continue
				}
				// Mostly small values, so addresses, indices and shift
				// amounts land in range; sometimes any word.
				v := uint32(rng.Intn(320))
				if rng.Intn(8) == 0 {
					v = uint32(rng.Uint64())
				}
				*p.Val, *p.Armed = v, true
			}
		}
		if after := observe(r.m); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s cycle %d: a write was visible before Clock", phase, c)
		}
		for _, u := range r.m.Units() {
			u.Clock(int64(c)) // unit faults (a double-triggered MMU) are part of the drive
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
	// ones read through a getter rather than a slot.
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
			r := newSlotRig(t, c.cfg, c.compute, routes, pkts)
			slots := slotsOf(r.m)

			var slotless []string
			for _, u := range r.m.Units() {
				pt := u.Ports()
				for _, p := range pt.Sockets {
					if p.Get != nil {
						slotless = append(slotless, pt.Name+"."+p.Name)
					}
				}
				for _, l := range pt.Lines {
					if l.Get != nil {
						slotless = append(slotless, pt.Name+"."+l.Name+" (signal)")
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

			drive(t, rng, r, "power-on", 300)

			// Unit-level Reset, then the owner's Reset: every pointer must
			// survive both, and the machine must be back at power-on.
			for _, u := range r.m.Units() {
				u.Reset()
			}
			if !sameSlots(slotsOf(r.m), slots) {
				t.Fatal("a slot pointer moved across Unit.Reset")
			}
			r.deliver(pkts)
			drive(t, rng, r, "after Unit.Reset", 300)

			r.reset()
			if !sameSlots(slotsOf(r.m), slots) {
				t.Fatal("a slot pointer moved across the machine's Reset")
			}
			fresh := newSlotRig(t, c.cfg, c.compute, routes, nil)
			if got, want := observe(r.m), observe(fresh.m); !reflect.DeepEqual(got, want) {
				t.Fatalf("Reset did not return the units to power-on:\n%v\n%v", got, want)
			}
			r.deliver(pkts)
			drive(t, rng, r, "after Reset", 300)
		})
	}
}

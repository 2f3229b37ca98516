package fu

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"taco/internal/linecard"
	"taco/internal/rtable"
	"taco/internal/tta"
)

// visible is everything a move or a guard can read of a unit: each
// Result and Register socket, then each signal line as 0/1.
func visible(u tta.Unit) []uint32 {
	var out []uint32
	pt := u.Ports()
	for _, p := range pt.Sockets {
		switch {
		case p.Reg != nil:
			out = append(out, *p.Reg)
		case p.Get != nil:
			out = append(out, p.Get())
		}
	}
	for _, l := range pt.Lines {
		if l.Flag != nil && *l.Flag || l.Get != nil && l.Get() {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// TestOperandWriteNeedsNoClock holds every ClockOnWrite unit of a router
// machine (every UnitKinds unit, the register file, the MMU, each
// RTUKinds backend, LIU and OPPU) to the operand half of its promise:
// after writes to Operand sockets alone, a Clock changes nothing a move
// or a guard can read, and a later trigger computes the same whether
// that Clock ran or not. The compiled step path skips exactly that
// Clock. Two twin machines take the same random writes; only one of
// them is clocked after the operand-only writes.
func TestOperandWriteNeedsNoClock(t *testing.T) {
	var kinds []rtable.Kind
	for kind := range RTUKinds {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	var tested []string
	for _, kind := range kinds {
		var twins [2]*tta.Machine
		for i := range twins {
			m, _, err := NewRouterMachine(Config3Bus1FU(kind), rtable.New(kind), linecard.NewBank(4))
			if err != nil {
				t.Fatal(err)
			}
			twins[i] = m
		}
		for ui := range twins[0].Units() {
			a, b := twins[0].Units()[ui], twins[1].Units()[ui]
			pt := a.Ports()
			var operands, triggers []int
			for si, p := range pt.Sockets {
				switch p.Kind {
				case tta.Operand:
					operands = append(operands, si)
				case tta.Trigger:
					triggers = append(triggers, si)
				}
			}
			if pt.Clocking != tta.ClockOnWrite || len(operands) == 0 {
				continue
			}
			tested = append(tested, pt.Name)
			name := fmt.Sprintf("%v/%s", kind, pt.Name)
			rng := rand.New(rand.NewPCG(2003, uint64(ui)))
			// Mostly tiny values, so comparisons tie, addresses and
			// interfaces land in range and shifts are short.
			value := func() uint32 {
				if rng.IntN(8) == 0 {
					return rng.Uint32()
				}
				return uint32(rng.IntN(8))
			}
			write := func(si int) {
				v := value()
				for _, u := range []tta.Unit{a, b} {
					p := &u.Ports().Sockets[si]
					*p.Val, *p.Armed = v, true
				}
			}
			clockBoth := func(round int, now int64, what string) {
				errA, errB := a.Clock(now), b.Clock(now)
				if fmt.Sprint(errA) != fmt.Sprint(errB) || !slices.Equal(visible(a), visible(b)) {
					t.Fatalf("%s round %d, %s: twin clocked after the operand writes %v (err %v), the other %v (err %v)",
						name, round, what, visible(a), errA, visible(b), errB)
				}
			}
			for round := 0; round < 200; round++ {
				now := int64(3 * round)
				// Any writes, clocked on both twins: a state off power-on.
				for si, p := range pt.Sockets {
					if p.Kind != tta.Result && rng.IntN(3) == 0 {
						write(si)
					}
				}
				clockBoth(round, now, "warm-up")
				// Operand writes alone; only twin a is clocked.
				for _, si := range operands {
					if rng.IntN(2) == 0 {
						write(si)
					}
				}
				write(operands[rng.IntN(len(operands))])
				before := visible(a)
				if err := a.Clock(now + 1); err != nil || !slices.Equal(visible(a), before) {
					t.Fatalf("%s round %d: a Clock after operand writes alone changed %v to %v (err %v)",
						name, round, before, visible(a), err)
				}
				// Sometimes an overwrite, then a trigger on both twins.
				if rng.IntN(2) == 0 {
					write(operands[rng.IntN(len(operands))])
				}
				write(triggers[rng.IntN(len(triggers))])
				clockBoth(round, now+2, "trigger")
			}
		}
	}
	slices.Sort(tested)
	want := []string{"cmp0", "liu", "mat0", "mmu", "msk0", "oppu", "shf0"}
	if got := slices.Compact(tested); !slices.Equal(got, want) {
		t.Errorf("units with operand sockets tested = %v, want %v", got, want)
	}
}

// Flight-recorder regression guards. The recorder must be free when it
// is off — a detached recorder is one nil check per move, so a run with
// no recorder is bit-identical (cycles, output bytes) and allocation-
// free in steady state — and faithful when it is on: the interpreter
// and the compiled fast path must record byte-for-byte identical event
// streams, or a tacoreplay -diff would report divergences the machines
// never had.
package taco_test

import (
	"fmt"
	"testing"

	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// recorderBatch forwards a fixed workload through a fresh router of
// cfg and returns (cycles, outputs, recorder tail). An armed recorder
// must retain the whole run.
func recorderBatch(t *testing.T, cfg fu.Config, compiled bool, recorderCap int) (int64, [][]byte, []obs.RecEvent) {
	t.Helper()
	const packets, ifaces = 48, 4
	kind := cfg.Table
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 64, Ifaces: ifaces, Seed: 11})
	tbl := rtable.New(kind)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		t.Fatal(err)
	}
	spec := workload.PaperTrafficSpec(packets)
	spec.Seed = 11
	spec.MissRatio = 0.1
	pkts, err := workload.GenerateTraffic(routes, spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := router.NewTACO(cfg, tbl, ifaces)
	if err != nil {
		t.Fatal(err)
	}
	var rec *obs.FlightRecorder
	if recorderCap != 0 {
		rec = tr.ArmRecorder(recorderCap)
	}
	if compiled {
		if err := tr.UseCompiled(); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pkts {
		if !tr.Deliver(i%ifaces, linecard.Datagram{Data: p.Data, Seq: p.Seq}) {
			t.Fatalf("deliver %d failed", i)
		}
	}
	if err := tr.Run(packets, 20_000_000); err != nil {
		t.Fatal(err)
	}
	outs := make([][]byte, ifaces)
	for i := 0; i < ifaces; i++ {
		for _, d := range tr.Outputs(i) {
			outs[i] = append(outs[i], d.Data...)
		}
	}
	var tail []obs.RecEvent
	if rec != nil {
		if rec.Dropped() != 0 {
			t.Fatalf("%s/%v: the recorder overwrote %d events; raise its capacity", cfg.Name, kind, rec.Dropped())
		}
		tail = rec.Tail()
	}
	return tr.Machine.Stats().Cycles, outs, tail
}

// TestRecorderOffBitIdentical: arming the flight recorder must not
// perturb the simulation — same cycle count, same bytes on every
// interface, on both step paths. If recording ever leaks into the
// cycle domain, the Table 1 ground truth moves, and this fails first.
func TestRecorderOffBitIdentical(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		name := "interpreted"
		if compiled {
			name = "compiled"
		}
		t.Run(name, func(t *testing.T) {
			cfg := fu.Config3Bus1FU(rtable.BalancedTree)
			offCycles, offOuts, _ := recorderBatch(t, cfg, compiled, 0)
			onCycles, onOuts, tail := recorderBatch(t, cfg, compiled, 1<<16)
			if offCycles != onCycles {
				t.Errorf("recorder changed the cycle count: %d off vs %d on", offCycles, onCycles)
			}
			for i := range offOuts {
				if string(offOuts[i]) != string(onOuts[i]) {
					t.Errorf("iface %d: output bytes differ with recorder armed", i)
				}
			}
			if len(tail) == 0 {
				t.Fatal("armed recorder captured no events")
			}
		})
	}
}

// TestRecorderPathsIdentical: with a recorder large enough to retain
// the whole run, the interpreter and the compiled fast path must
// record the exact same event stream — every move, guard outcome,
// trigger, jump and line-card push/pop at the same cycle with the same
// value — on each of the nine Table 1 machines: the sequential scan's
// guarded jumps, the three-matcher multi-term guards and the CAM's
// search wait included. This is the contract tacoreplay -diff leans on.
func TestRecorderPathsIdentical(t *testing.T) {
	for _, kind := range rtable.PaperKinds {
		for _, cfg := range fu.PaperConfigs(kind) {
			t.Run(fmt.Sprintf("%v/%s", kind, cfg.Name), func(t *testing.T) {
				_, _, interp := recorderBatch(t, cfg, false, 1<<18)
				_, _, compiled := recorderBatch(t, cfg, true, 1<<18)
				if len(interp) == 0 {
					t.Fatal("no events recorded")
				}
				if len(interp) != len(compiled) {
					t.Fatalf("event counts differ: interpreted %d, compiled %d", len(interp), len(compiled))
				}
				for i := range interp {
					if interp[i] != compiled[i] {
						t.Fatalf("event %d diverged:\n  interpreted: %s\n  compiled:    %s",
							i, interp[i].Format(nil), compiled[i].Format(nil))
					}
				}
			})
		}
	}
}

// batchAllocs is the average allocation count of one reset-reuse batch
// of a router whose recorder was armed and, unless armed, detached again
// — so both cases start from the same machine.
func batchAllocs(t *testing.T, compiled, armed bool) float64 {
	t.Helper()
	const packets, ifaces = 16, 4
	kind := rtable.BalancedTree
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 64, Ifaces: ifaces, Seed: 11})
	tbl := rtable.New(kind)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		t.Fatal(err)
	}
	pkts, err := workload.GenerateTraffic(routes, workload.PaperTrafficSpec(packets))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := router.NewTACO(fu.Config3Bus1FU(kind), tbl, ifaces)
	if err != nil {
		t.Fatal(err)
	}
	tr.ArmRecorder(64)
	if !armed {
		tr.Machine.Recorder = nil
		tr.Bank.SetRecorder(nil)
	}
	if compiled {
		if err := tr.UseCompiled(); err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
		tr.Reset()
		for i, p := range pkts {
			tr.Deliver(i%ifaces, linecard.Datagram{Data: p.Data, Seq: p.Seq})
		}
		if err := tr.Run(packets, 20_000_000); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= ifaces; i++ {
			tr.Outputs(i)
		}
	}
	run() // warm scratch capacity
	return testing.AllocsPerRun(10, run)
}

// TestRecorderOffAllocFree: the recorder-off steady state (the default)
// must stay allocation-free per reset-reuse batch beyond the datagram
// payload copies themselves — the recorder's absence is one nil check,
// not an allocation site. Mirrors TestSteadyStateAllocs with the
// recorder explicitly in the picture (armed once, then detached: a
// previously armed machine must pay nothing once the recorder is gone).
func TestRecorderOffAllocFree(t *testing.T) {
	const packets = 16
	avg := batchAllocs(t, false, false)
	// Same budget as TestSteadyStateAllocs: the per-batch DrainOutput
	// slices (and nothing else) may allocate.
	if budget := float64(4 * packets); avg > budget {
		t.Errorf("recorder-off batch allocates %.1f times (budget %.0f)", avg, budget)
	}
}

// TestRecorderOnAllocFree: an armed recorder writes into its fixed ring,
// so on either step path a reset-reuse batch with it armed allocates no
// more than the same batch with it off.
func TestRecorderOnAllocFree(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		off, on := batchAllocs(t, compiled, false), batchAllocs(t, compiled, true)
		if on > off {
			t.Errorf("compiled=%v: armed batch allocates %.1f times, recorder-off %.1f", compiled, on, off)
		}
	}
}

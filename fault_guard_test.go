// Fault-path regression guard: the fault subsystem must be free when it
// is off. A disabled injector is one nil check in the traffic loop, and
// the drop audit lives outside the cycle domain — so a run with the
// audit armed is bit-identical in cycles and outputs to a plain run,
// and the steady-state hot path stays allocation-free (TestSteadyStateAllocs
// covers the allocation half; TestBenchSnapshotCycles pins the cycle
// counts against the recorded reference).
package taco_test

import (
	"bytes"
	"testing"

	"taco/internal/fault"
	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// runBatch forwards the workload through a fresh TACO router and
// returns the consumed cycles plus the concatenated output bytes per
// interface. enableAudit arms the drop audit before the run.
func runBatch(t *testing.T, enableAudit bool) (int64, [][]byte) {
	t.Helper()
	const packets, ifaces = 48, 4
	kind := rtable.BalancedTree
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
	tr, err := router.NewTACO(fu.Config3Bus1FU(kind), tbl, ifaces)
	if err != nil {
		t.Fatal(err)
	}
	if enableAudit {
		tr.EnableDropAudit()
	}
	for i, p := range pkts {
		if !tr.Deliver(i%ifaces, linecard.Datagram{Data: p.Data, Seq: p.Seq}) {
			t.Fatalf("deliver %d failed", i)
		}
	}
	if err := tr.Run(packets, 20_000_000); err != nil {
		t.Fatal(err)
	}
	if enableAudit {
		tr.FinalizeDropAudit()
		if n := tr.UnexplainedDrops(); n != 0 {
			t.Fatalf("%d unexplained drops on clean traffic", n)
		}
	}
	outs := make([][]byte, ifaces)
	for i := 0; i < ifaces; i++ {
		for _, d := range tr.Outputs(i) {
			outs[i] = append(outs[i], d.Data...)
		}
	}
	return tr.Machine.Stats().Cycles, outs
}

// TestFaultOffBitIdentical: arming the drop audit must not perturb the
// simulation — same cycle count, same bytes on every interface. The
// audit only watches queues after the run; if it ever leaks into the
// cycle domain, the Table 1 ground truth moves, and this fails first.
func TestFaultOffBitIdentical(t *testing.T) {
	plainCycles, plainOuts := runBatch(t, false)
	auditCycles, auditOuts := runBatch(t, true)
	if plainCycles != auditCycles {
		t.Errorf("drop audit changed the cycle count: %d vs %d", plainCycles, auditCycles)
	}
	for i := range plainOuts {
		if !bytes.Equal(plainOuts[i], auditOuts[i]) {
			t.Errorf("interface %d: drop audit changed the output bytes", i)
		}
	}
}

// TestNilInjectorAllocFree: the fault-off traffic loop — a nil
// *Injector applied to every packet — must not allocate or copy.
func TestNilInjectorAllocFree(t *testing.T) {
	var inj *fault.Injector
	data := make([][]byte, 64)
	for i := range data {
		data[i] = make([]byte, 128)
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := range data {
			if out := inj.Apply(data[i]); &out[0] != &data[i][0] {
				t.Fatal("nil injector copied the datagram")
			}
		}
	})
	if avg != 0 {
		t.Errorf("nil injector allocates: %.1f allocs per 64-packet loop", avg)
	}
}

// Differential suite for the compiled fast path: every Table 1
// architecture instance is simulated twice — interpreter and compiled —
// over the golden forwarding corpus (clean traffic plus fault-mutated
// frames), and every observable must match exactly: cycle counts, halt
// state, program counter, socket snapshots, per-interface outputs,
// drop counters and latency records. The same contract is checked for
// the checksum helper program in per-cycle lockstep, and for the
// watchdog's StallError dump under an exhausted budget.
package taco_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"taco/internal/fault"
	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/isa"
	"taco/internal/linecard"
	"taco/internal/program"
	"taco/internal/ripng"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/tta"
	"taco/internal/workload"
)

// goldenCorpus is the differential corpus: the standard bench workload
// (with its 5% no-route traffic) followed by one fault-mutated variant
// per mutator, so the comparison covers forwarding, drops and the
// error-handling paths. Sequence numbers stay unique across the blend.
func goldenCorpus(t testing.TB, routes []rtable.Route, packets int) []workload.Packet {
	t.Helper()
	spec := workload.PaperTrafficSpec(packets)
	spec.MissRatio = 0.05
	pkts, err := workload.GenerateTraffic(routes, spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(77)
	seq := int64(len(pkts))
	for i, mut := range fault.AllMutators() {
		base := pkts[i%len(pkts)]
		data := mut.Mutate(rng, append([]byte(nil), base.Data...))
		pkts = append(pkts, workload.Packet{Data: data, Seq: seq})
		seq++
	}
	return pkts
}

// buildRouter constructs one TACO router over its own freshly built
// routing table (tables carry mutable lookup state, so the two sides of
// a differential run must not share one).
func buildRouter(t testing.TB, kind rtable.Kind, cfg fu.Config, routes []rtable.Route) *router.TACO {
	t.Helper()
	tbl := rtable.New(kind)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		t.Fatal(err)
	}
	tr, err := router.NewTACO(cfg, tbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// compareRouters checks every post-run observable of the two routers.
func compareRouters(t *testing.T, trI, trC *router.TACO) {
	t.Helper()
	if got, want := trC.Machine.Stats(), trI.Machine.Stats(); got != want {
		t.Errorf("stats differ: compiled %+v, interpreted %+v", got, want)
	}
	if got, want := trC.Machine.PC(), trI.Machine.PC(); got != want {
		t.Errorf("pc differs: compiled %d, interpreted %d", got, want)
	}
	if got, want := trC.Machine.Halted(), trI.Machine.Halted(); got != want {
		t.Errorf("halted differs: compiled %t, interpreted %t", got, want)
	}
	if got, want := trC.CyclesPerPacket(), trI.CyclesPerPacket(); got != want {
		t.Errorf("cycles/packet differ: compiled %v, interpreted %v", got, want)
	}
	if got, want := trC.Machine.SnapshotSockets(), trI.Machine.SnapshotSockets(); !reflect.DeepEqual(got, want) {
		t.Errorf("socket snapshots differ:\ncompiled:    %+v\ninterpreted: %+v", got, want)
	}
	if got, want := trC.QueueStats(), trI.QueueStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("line card stats (incl. drops) differ:\ncompiled:    %+v\ninterpreted: %+v", got, want)
	}
	if got, want := trC.Latency(), trI.Latency(); !reflect.DeepEqual(got, want) {
		t.Errorf("latency summaries differ: compiled %+v, interpreted %+v", got, want)
	}
	for ifc := 0; ifc < trI.Ifaces(); ifc++ {
		outI, outC := trI.Outputs(ifc), trC.Outputs(ifc)
		if len(outI) != len(outC) {
			t.Errorf("iface %d: compiled sent %d datagrams, interpreted %d", ifc, len(outC), len(outI))
			continue
		}
		for k := range outI {
			if outI[k].Seq != outC[k].Seq || !bytes.Equal(outI[k].Data, outC[k].Data) {
				t.Errorf("iface %d, slot %d: compiled seq %d (%d bytes), interpreted seq %d (%d bytes)",
					ifc, k, outC[k].Seq, len(outC[k].Data), outI[k].Seq, len(outI[k].Data))
			}
		}
	}
}

// deliverBoth delivers pkts to both routers, pkts[j] on interface
// (first+j)%4 — first is pkts[0]'s index in the corpus — and returns
// how many both accepted.
func deliverBoth(t *testing.T, trI, trC *router.TACO, pkts []workload.Packet, first int) int64 {
	t.Helper()
	delivered := int64(0)
	for j, p := range pkts {
		okI := trI.Deliver((first+j)%4, linecard.Datagram{Data: p.Data, Seq: p.Seq})
		okC := trC.Deliver((first+j)%4, linecard.Datagram{Data: p.Data, Seq: p.Seq})
		if okI != okC {
			t.Fatalf("delivery %d accepted=%t compiled vs %t interpreted", first+j, okC, okI)
		}
		if okI {
			delivered++
		}
	}
	return delivered
}

// TestCompiledVsInterpreted runs the nine Table 1 instances over the
// golden corpus on both step paths, two reset-reuse batches each, and
// requires every observable to be identical. The batches follow a run
// cut short by the watchdog: the first starts from a Reset in the
// middle of a run and is compared with a freshly built router. A last
// case delivers the corpus in two waves with no Reset between them: the
// second wave reaches a bank the first left drained, so the compiled
// machine must wake its parked preprocessing unit.
func TestCompiledVsInterpreted(t *testing.T) {
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 100, Ifaces: 4, Seed: 2003})
	pkts := goldenCorpus(t, routes, 24)
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, cfg := range fu.PaperConfigs(kind) {
			kind, cfg := kind, cfg
			t.Run(fmt.Sprintf("%s/%s", kind, cfg.Name), func(t *testing.T) {
				trI := buildRouter(t, kind, cfg, routes)
				trC := buildRouter(t, kind, cfg, routes)
				if err := trC.UseCompiled(); err != nil {
					t.Fatal(err)
				}
				// Batch -1 stalls mid-run; batch 0 exercises a Reset in
				// the middle of a compiled run (stale idle caches) against
				// a fresh router, batch 1 reset-reuse (retained capacity)
				// against the interpreted twin.
				for batch := -1; batch < 2; batch++ {
					ref := trI
					if batch == 0 {
						ref = buildRouter(t, kind, cfg, routes)
					}
					ref.Reset()
					trC.Reset()
					delivered := deliverBoth(t, ref, trC, pkts, 0)
					budget := int64(20_000_000)
					if batch < 0 {
						budget = 200
					}
					errI := ref.Run(delivered, budget)
					errC := trC.Run(delivered, budget)
					if batch < 0 {
						if !errors.Is(errI, router.ErrStall) || !errors.Is(errC, router.ErrStall) {
							t.Fatalf("cut-short run: compiled %v, interpreted %v; want stalls", errC, errI)
						}
						continue
					}
					if (errI == nil) != (errC == nil) {
						t.Fatalf("batch %d: run errors differ: compiled %v, interpreted %v", batch, errC, errI)
					}
					if errI != nil {
						t.Fatalf("batch %d: run failed on both paths: %v", batch, errI)
					}
					compareRouters(t, ref, trC)
				}

				trI.Reset()
				trC.Reset()
				half := len(pkts) / 2
				delivered := int64(0)
				for wave, w := range [][]workload.Packet{pkts[:half], pkts[half:]} {
					delivered += deliverBoth(t, trI, trC, w, wave*half)
					errI := trI.Run(delivered, 20_000_000)
					errC := trC.Run(delivered, 20_000_000)
					if errI != nil || errC != nil {
						t.Fatalf("wave %d: compiled %v, interpreted %v", wave, errC, errI)
					}
				}
				compareRouters(t, trI, trC)
			})
		}
	}
}

// TestCompiledStallErrorIdentical exhausts the watchdog budget on both
// paths and requires the full StallError dump — down to the socket
// snapshot taken at the stall — to match field for field.
func TestCompiledStallErrorIdentical(t *testing.T) {
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 100, Ifaces: 4, Seed: 2003})
	pkts := goldenCorpus(t, routes, 24)
	kind := rtable.Sequential
	cfg := fu.Config1Bus1FU(kind)

	stall := func(compiled bool) *router.StallError {
		tr := buildRouter(t, kind, cfg, routes)
		if compiled {
			if err := tr.UseCompiled(); err != nil {
				t.Fatal(err)
			}
		}
		for j, p := range pkts {
			tr.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq})
		}
		err := tr.Run(int64(len(pkts)), 900) // far below the ~1669 cycles/packet this cell needs
		var se *router.StallError
		if !errors.As(err, &se) {
			t.Fatalf("compiled=%t: got %v, want a *StallError", compiled, err)
		}
		return se
	}

	seI, seC := stall(false), stall(true)
	if !reflect.DeepEqual(seI, seC) {
		t.Fatalf("stall dumps differ:\ncompiled:    %+v\ninterpreted: %+v", seC, seI)
	}
}

// lockstepMachines steps mi (interpreter) and mc (compiled) one cycle
// at a time, comparing pc, halt flag, statistics and the full socket
// snapshot after every cycle, until both halt.
func lockstepMachines(t *testing.T, mi, mc *tta.Machine, maxCycles int) {
	t.Helper()
	for cyc := 0; ; cyc++ {
		if cyc > maxCycles {
			t.Fatalf("no halt after %d cycles", maxCycles)
		}
		if hi, hc := mi.Halted(), mc.Halted(); hi != hc {
			t.Fatalf("cycle %d: halted differs: compiled %t, interpreted %t", cyc, hc, hi)
		} else if hi {
			return
		}
		errI := mi.Step()
		errC := mc.Step()
		switch {
		case (errI == nil) != (errC == nil):
			t.Fatalf("cycle %d: step errors differ: compiled %v, interpreted %v", cyc, errC, errI)
		case errI != nil && errI.Error() != errC.Error():
			t.Fatalf("cycle %d: error text differs: compiled %q, interpreted %q", cyc, errC, errI)
		case errI != nil:
			return
		}
		if got, want := mc.PC(), mi.PC(); got != want {
			t.Fatalf("cycle %d: pc differs: compiled %d, interpreted %d", cyc, got, want)
		}
		if got, want := mc.Stats(), mi.Stats(); got != want {
			t.Fatalf("cycle %d: stats differ: compiled %+v, interpreted %+v", cyc, got, want)
		}
		if got, want := mc.SnapshotSockets(), mi.SnapshotSockets(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: sockets differ:\ncompiled:    %+v\ninterpreted: %+v", cyc, got, want)
		}
	}
}

// TestCompiledVsInterpretedChecksum runs the checksum helper program in
// per-cycle lockstep on two identical compute machines — the non-router
// program shape (tight counter loops, guarded back-branches).
func TestCompiledVsInterpretedChecksum(t *testing.T) {
	build := func() (*tta.Machine, *fu.MMU, *isa.Program) {
		cfg := fu.Config3Bus1FU(0)
		cfg.Counters = 2
		m, err := fu.NewComputeMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var mmu *fu.MMU
		for _, u := range m.Units() {
			if mm, ok := u.(*fu.MMU); ok {
				mmu = mm
			}
		}
		prog, _, err := program.ChecksumVerify(m)
		if err != nil {
			t.Fatal(err)
		}
		return m, mmu, prog
	}
	mi, mmuI, progI := build()
	mc, mmuC, progC := build()

	// A valid RIPng response wrapped in UDP/IPv6, then a corrupted copy:
	// one accept run and one reject run through the same program.
	pkt := ripng.Packet{Command: ripng.CommandResponse}
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 6, Ifaces: 2, Seed: 11})
	for _, r := range routes {
		pkt.RTEs = append(pkt.RTEs, ripng.RTE{Prefix: r.Prefix, Metric: 2})
	}
	d, err := ripng.WrapUDP(ipv6.MustParseAddr("fe80::7"), ipv6.AllRIPRouters, pkt)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), d...)
	bad[ipv6.HeaderBytes+3] ^= 0x40

	for _, datagram := range [][]byte{d, bad} {
		const base = 100
		h, err := ipv6.ParseHeader(datagram)
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []struct {
			m   *tta.Machine
			mmu *fu.MMU
		}{{mi, mmuI}, {mc, mmuC}} {
			side.m.Reset()
			if _, err := side.mmu.StoreBytes(base, datagram); err != nil {
				t.Fatal(err)
			}
			pre := isa.NewProgram()
			pre.Ins = []isa.Instruction{{Moves: []isa.Move{
				{Src: isa.ImmSrc(base), Dst: side.m.MustSocket("gpr.r0")},
				{Src: isa.ImmSrc(uint32(h.PayloadLen)), Dst: side.m.MustSocket("gpr.r1")},
			}}}
			if err := side.m.Load(pre); err != nil {
				t.Fatal(err)
			}
			if _, err := side.m.Run(10); err != nil {
				t.Fatal(err)
			}
		}
		if err := mi.Load(progI); err != nil {
			t.Fatal(err)
		}
		if err := mc.Load(progC); err != nil {
			t.Fatal(err)
		}
		mi.SetPC(progI.Labels["cksum"])
		mc.SetPC(progC.Labels["cksum"])
		// Compiled from the first Load on: every later Load re-lowers.
		if !mc.Compiled() {
			if err := mc.UseCompiled(); err != nil {
				t.Fatal(err)
			}
		}
		lockstepMachines(t, mi, mc, 200_000)
		vI, err := mi.ReadSocket("gpr.r15")
		if err != nil {
			t.Fatal(err)
		}
		vC, err := mc.ReadSocket("gpr.r15")
		if err != nil {
			t.Fatal(err)
		}
		if vI != vC {
			t.Fatalf("checksum verdict differs: compiled %d, interpreted %d", vC, vI)
		}
	}
}

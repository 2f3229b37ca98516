// Observability integration suite: the obs counters, latency
// histograms and stall attribution seen through a whole router — on
// both step paths, across resets, and on the failure paths (watchdog
// stalls, truncated traces) where observability matters most.
package taco_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"taco/internal/fu"
	"taco/internal/isa"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/profile"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/tta"
	"taco/internal/workload"
)

// TestCompiledCountersDifferential derives obs counters from both step
// paths' execution counts on every Table 1 instance over the golden
// corpus (clean plus fault-mutated traffic) and requires bit-identical
// counter state, latency histograms and stall attribution.
func TestCompiledCountersDifferential(t *testing.T) {
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
				for batch := 0; batch < 2; batch++ {
					trI.Reset()
					trC.Reset()
					delivered := int64(0)
					for j, p := range pkts {
						if trI.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq}) {
							delivered++
						}
						trC.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq})
					}
					if err := trI.Run(delivered, 20_000_000); err != nil {
						t.Fatalf("batch %d interpreted: %v", batch, err)
					}
					if err := trC.Run(delivered, 20_000_000); err != nil {
						t.Fatalf("batch %d compiled: %v", batch, err)
					}
					cI, cC := trI.Machine.Counters(), trC.Machine.Counters()
					if !reflect.DeepEqual(cC, cI) {
						t.Fatalf("batch %d: counters differ:\ncompiled:    %+v\ninterpreted: %+v", batch, cC, cI)
					}
					if hI, hC := trI.LatencyHist(), trC.LatencyHist(); *hI != *hC {
						t.Fatalf("batch %d: latency histograms differ", batch)
					}
					if got, want := trC.WatchdogStalls(), trI.WatchdogStalls(); got != want {
						t.Fatalf("batch %d: watchdog stalls differ: compiled %v, interpreted %v", batch, got, want)
					}
					if cC.Cycles == 0 || trC.LatencyHist().Count() == 0 {
						t.Fatalf("batch %d: no activity recorded (cycles=%d, latencies=%d)",
							batch, cC.Cycles, trC.LatencyHist().Count())
					}
				}
			})
		}
	}
}

// TestCountsMatchRecorderTally is the oracle for the execution count:
// on every Table 1 instance and both step paths, the counters derived
// from it and every region of the cycle profile built from it must
// equal an independent tally of the flight-recorder stream of a stepped
// run — each completed cycle charged to its PC, each move event to its
// bus, source and destination.
func TestCountsMatchRecorderTally(t *testing.T) {
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 100, Ifaces: 4, Seed: 2003})
	pkts := goldenCorpus(t, routes, 24)
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, cfg := range fu.PaperConfigs(kind) {
			for _, compiled := range []bool{false, true} {
				kind, cfg, compiled := kind, cfg, compiled
				t.Run(fmt.Sprintf("%s/%s/compiled=%t", kind, cfg.Name, compiled), func(t *testing.T) {
					tr := buildRouter(t, kind, cfg, routes)
					tr.ArmRecorder(0)
					if compiled {
						if err := tr.UseCompiled(); err != nil {
							t.Fatal(err)
						}
					}
					m := tr.Machine
					want := obs.NewCounters(m.Buses(), m.UnitCount(), m.SocketCount())
					prog := tr.Sched.Program
					cycles := make([]int64, len(prog.Ins))
					moves := make([]int64, len(prog.Ins))
					unit := func(id int32) int { u, _ := m.SocketUnit(isa.SocketID(id)); return u }
					tally := func(_ int64, pc int, events []obs.RecEvent) bool {
						want.Cycles++
						cycles[pc]++
						for _, e := range events {
							switch e.Kind {
							case obs.EvGuardFalse:
								want.BusEncoded[e.Bus]++
							case obs.EvMove, obs.EvTrigger, obs.EvJump, obs.EvHalt:
								moves[pc]++
								want.BusEncoded[e.Bus]++
								want.BusExecuted[e.Bus]++
								if e.Src >= 0 {
									want.SocketReads[e.Src-1]++
									if k, _ := m.SocketKindOf(isa.SocketID(e.Src)); k == tta.Result {
										want.UnitResults[unit(e.Src)]++
									}
								}
								want.SocketWrites[e.Dst-1]++
								if e.Kind == obs.EvTrigger {
									want.UnitTriggers[unit(e.Dst)]++
								}
							}
						}
						return true
					}
					delivered := int64(0)
					for j, p := range pkts {
						if tr.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq}) {
							delivered++
						}
					}
					if _, err := tr.RunStepped(delivered, 20_000_000, tally); err != nil {
						t.Fatal(err)
					}
					if want.Cycles == 0 || want.ExecutedTotal() == want.EncodedTotal() {
						t.Fatalf("tally of %d cycles has no guard-failed move: nothing to check", want.Cycles)
					}
					if got := m.Counters(); !reflect.DeepEqual(got, want) {
						t.Fatalf("derived counters differ from the recorder tally:\nderived: %+v\ntally:   %+v", got, want)
					}
					p := profile.New(prog, m.Count())
					if p.Total() != want.Cycles {
						t.Errorf("profile total %d, tally %d cycles", p.Total(), want.Cycles)
					}
					for _, r := range p.Regions() {
						var c, mv int64
						for pc := r.Start; pc < r.End; pc++ {
							c, mv = c+cycles[pc], mv+moves[pc]
						}
						if r.Cycles != c || r.MovesIssued != mv {
							t.Errorf("region %s: %d cycles, %d moves; tally %d, %d", r.Label, r.Cycles, r.MovesIssued, c, mv)
						}
					}
				})
			}
		}
	}
}

// TestLatencyIsPopToPush holds the postprocessing unit's latency
// records to the flight recorder: every entry of OPPU.Latencies must be
// its datagram's EvPush cycle minus its EvPop cycle (the two line-card
// events, matched by sequence number), on every Table 1 instance and
// both step paths. The DMA units read the cycle from the machine, so a
// latency and the recorder's timeline cannot drift apart.
func TestLatencyIsPopToPush(t *testing.T) {
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 100, Ifaces: 4, Seed: 2003})
	pkts := goldenCorpus(t, routes, 24)
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, cfg := range fu.PaperConfigs(kind) {
			for _, compiled := range []bool{false, true} {
				kind, cfg, compiled := kind, cfg, compiled
				t.Run(fmt.Sprintf("%s/%s/compiled=%t", kind, cfg.Name, compiled), func(t *testing.T) {
					tr := buildRouter(t, kind, cfg, routes)
					rec := tr.ArmRecorder(1 << 16)
					if compiled {
						if err := tr.UseCompiled(); err != nil {
							t.Fatal(err)
						}
					}
					if err := obsRun(tr, pkts, 20_000_000); err != nil {
						t.Fatal(err)
					}
					if rec.Dropped() != 0 {
						t.Fatalf("recorder dropped %d of %d events: arm a larger one", rec.Dropped(), rec.Total())
					}
					popped := map[uint32]int64{}
					var want []int64
					for _, e := range rec.Tail() {
						switch e.Kind {
						case obs.EvPop:
							popped[e.Value] = e.Cycle
						case obs.EvPush:
							at, ok := popped[e.Value]
							if !ok {
								t.Fatalf("seq %d pushed at cycle %d, never popped", e.Value, e.Cycle)
							}
							want = append(want, e.Cycle-at)
						}
					}
					got := tr.Units.OPPU.Latencies()
					if len(got) == 0 || !reflect.DeepEqual(got, want) {
						t.Fatalf("latencies %v, recorder push-pop %v", got, want)
					}
				})
			}
		}
	}
}

// obsRun pushes pkts through tr (counting only the deliveries the
// cards accept — fault-mutated frames can be rejected at the door) and
// returns the Run error.
func obsRun(tr *router.TACO, pkts []workload.Packet, budget int64) error {
	delivered := int64(0)
	for j, p := range pkts {
		if tr.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq}) {
			delivered++
		}
	}
	return tr.Run(delivered, budget)
}

// TestResetClearsObservability: after a successful batch followed by a
// stalled one, Reset must return every observable to power-on state —
// counters, watchdog stall charges, latency records and the line-card
// high-water marks — and a fresh batch must then reproduce exactly the
// numbers of a never-stalled router.
func TestResetClearsObservability(t *testing.T) {
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 100, Ifaces: 4, Seed: 2003})
	pkts := goldenCorpus(t, routes, 24)
	kind, cfg := rtable.BalancedTree, fu.Config3Bus1FU(rtable.BalancedTree)

	tr := buildRouter(t, kind, cfg, routes)
	if err := obsRun(tr, pkts, 20_000_000); err != nil {
		t.Fatal(err)
	}
	referenceCycles := tr.Machine.Counters().Cycles
	referenceHist := *tr.LatencyHist()

	// Stall the second batch to dirty the watchdog counters and drive
	// the queues (and their high-water marks) into a nonzero state.
	tr.Reset()
	if err := obsRun(tr, pkts, 500); !errors.Is(err, router.ErrStall) {
		t.Fatalf("starved run returned %v, want a stall", err)
	}
	if tr.WatchdogStalls().Total() == 0 {
		t.Fatalf("stalled run charged no watchdog cycles")
	}

	tr.Reset()
	if c := tr.Machine.Counters(); c.Cycles != 0 || c.EncodedTotal() != 0 || c.TriggerTotal() != 0 {
		t.Errorf("Reset left counters: cycles=%d encoded=%d triggers=%d",
			c.Cycles, c.EncodedTotal(), c.TriggerTotal())
	}
	if got := tr.WatchdogStalls(); got != (obs.StallCounters{}) {
		t.Errorf("Reset left watchdog stalls: %v", got)
	}
	if got := tr.LatencyHist().Count(); got != 0 {
		t.Errorf("Reset left %d latency records", got)
	}
	for i, st := range tr.QueueStats() {
		if st != (linecard.Stats{}) {
			t.Errorf("Reset left card %d stats (incl. high-water marks): %+v", i, st)
		}
	}

	// The observables after Reset are not merely zero — a repeat batch
	// must be indistinguishable from the router's first.
	if err := obsRun(tr, pkts, 20_000_000); err != nil {
		t.Fatal(err)
	}
	if c := tr.Machine.Counters(); c.Cycles != referenceCycles {
		t.Errorf("post-reset batch ran %d cycles, first ran %d", c.Cycles, referenceCycles)
	}
	if got := *tr.LatencyHist(); got != referenceHist {
		t.Errorf("post-reset latency histogram differs from the first batch's")
	}
}

// TestStalledRunTraceLoadable: a traced run — stepped, the exporter
// fed from the recorder after every cycle — that dies in a watchdog
// stall must still leave a loadable Chrome trace once the writer is
// closed, on either step path: the flush-on-failure contract the CLI
// error paths rely on.
func TestStalledRunTraceLoadable(t *testing.T) {
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 100, Ifaces: 4, Seed: 2003})
	pkts := goldenCorpus(t, routes, 24)
	var traces [2][]byte
	for i, compiled := range []bool{false, true} {
		tr := buildRouter(t, rtable.Sequential, fu.Config1Bus1FU(rtable.Sequential), routes)
		tr.ArmRecorder(0)
		if compiled {
			if err := tr.UseCompiled(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		tw := obs.NewTraceWriter(&buf)
		export := tr.Machine.TraceHook(tw)

		delivered := int64(0)
		for j, p := range pkts {
			if tr.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq}) {
				delivered++
			}
		}
		_, err := tr.RunStepped(delivered, 900, func(_ int64, _ int, events []obs.RecEvent) bool {
			export(events)
			return true
		})
		var se *router.StallError
		if !errors.As(err, &se) {
			t.Fatalf("compiled=%t: got %v, want a *StallError", compiled, err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
				TS   int64  `json:"ts"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("compiled=%t: trace of a stalled run is not valid JSON: %v", compiled, err)
		}
		var slices int
		var lastTS int64
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" {
				slices++
				lastTS = e.TS
			}
		}
		if slices == 0 {
			t.Fatalf("compiled=%t: stalled-run trace has no slices", compiled)
		}
		// The trace must cover the run right up to the watchdog: the 1-bus
		// program encodes a move every cycle, so its last slice is the
		// stall's last executed cycle.
		if lastTS != se.Cycles-1 {
			t.Errorf("compiled=%t: trace ends at cycle %d, stall fired after %d", compiled, lastTS, se.Cycles)
		}
		traces[i] = buf.Bytes()
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Error("the compiled path's stalled-run trace differs from the interpreter's")
	}
}

// TestStallCauseAttribution pins the watchdog's classification: a run
// starved of budget with traffic still queued is queue backpressure; a
// run waiting for traffic that never arrives (empty queues, polling
// loop) is a plain watchdog stall. Each stall's cycles are charged to
// its cause, and charges accumulate until Reset.
func TestStallCauseAttribution(t *testing.T) {
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 100, Ifaces: 4, Seed: 2003})
	pkts := goldenCorpus(t, routes, 24)
	tr := buildRouter(t, rtable.Sequential, fu.Config1Bus1FU(rtable.Sequential), routes)

	err := obsRun(tr, pkts, 900)
	var se *router.StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want a *StallError", err)
	}
	if se.Cause != obs.StallQueueBackpressure {
		t.Fatalf("starved-budget stall classified %v, want %v", se.Cause, obs.StallQueueBackpressure)
	}
	if got := tr.WatchdogStalls()[obs.StallQueueBackpressure]; got != se.Cycles {
		t.Fatalf("backpressure charged %d cycles, stall ran %d", got, se.Cycles)
	}
	if !errors.Is(err, router.ErrStall) {
		t.Fatalf("StallError does not match ErrStall")
	}

	// Same router, fresh batch: expecting a datagram that was never
	// delivered parks the machine in its poll loop — queues empty, no
	// backlog — so the cause degrades to the plain watchdog.
	tr.Reset()
	err = tr.Run(1, 2_000)
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want a *StallError", err)
	}
	if se.Cause != obs.StallWatchdog {
		t.Fatalf("starved-input stall classified %v, want %v", se.Cause, obs.StallWatchdog)
	}
	st := tr.WatchdogStalls()
	if st[obs.StallWatchdog] != se.Cycles || st[obs.StallQueueBackpressure] != 0 {
		t.Fatalf("post-reset charges %v, want only %d watchdog cycles", st, se.Cycles)
	}

	// A second starved run accumulates onto the same cause.
	prev := se.Cycles
	err = tr.Run(1, 2_000)
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want a *StallError", err)
	}
	if got := tr.WatchdogStalls()[obs.StallWatchdog]; got != prev+se.Cycles {
		t.Fatalf("watchdog charges = %d, want %d", got, prev+se.Cycles)
	}
	// The dump names the cause for CLI diagnostics.
	if dump := se.Dump(); !bytes.Contains([]byte(dump), []byte("cause watchdog")) {
		t.Errorf("stall dump does not name its cause:\n%s", dump)
	}
}

// TestSchedStallAttribution: the scheduler's static hazard attribution
// is deterministic across rebuilds, nonzero for every Table 1 instance
// (the generated forwarding program always carries dependence chains),
// and confined to the statically attributable causes.
func TestSchedStallAttribution(t *testing.T) {
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 16, Ifaces: 4, Seed: 2003})
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, cfg := range fu.PaperConfigs(kind) {
			a := buildRouter(t, kind, cfg, routes).SchedStalls()
			b := buildRouter(t, kind, cfg, routes).SchedStalls()
			if a != b {
				t.Errorf("%s/%s: attribution not deterministic: %v vs %v", kind, cfg.Name, a, b)
			}
			if a.Total() == 0 {
				t.Errorf("%s/%s: scheduler charged no stall cycles", kind, cfg.Name)
			}
			if a[obs.StallQueueBackpressure] != 0 || a[obs.StallWatchdog] != 0 {
				t.Errorf("%s/%s: static schedule charged dynamic causes: %v", kind, cfg.Name, a)
			}
		}
	}
	// The narrower the machine, the more the schedule waits: the 1-bus
	// instance must charge at least as many bus conflicts as the 3-bus
	// instance of the same kind.
	one := buildRouter(t, rtable.Sequential, fu.Config1Bus1FU(rtable.Sequential), routes).SchedStalls()
	three := buildRouter(t, rtable.Sequential, fu.Config3Bus1FU(rtable.Sequential), routes).SchedStalls()
	if one[obs.StallBusConflict] < three[obs.StallBusConflict] {
		t.Errorf("1-bus schedule charged fewer bus conflicts (%d) than 3-bus (%d)",
			one[obs.StallBusConflict], three[obs.StallBusConflict])
	}
}

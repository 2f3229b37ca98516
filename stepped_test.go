// The cycle-stepped run loop against the batch one. RunStepped is what
// every per-move consumer drives (tacoreplay -step, -trace, -trace-out),
// so on every Table 1 cell and both step paths it must be
// Run in every observable, and what it reports cycle by cycle must be
// the batch run's recorder tail, cut at the cycle boundaries.
package taco_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

func TestSteppedRunMatchesRun(t *testing.T) {
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 100, Ifaces: 4, Seed: 2003})
	pkts := goldenCorpus(t, routes, 24)
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, cfg := range fu.PaperConfigs(kind) {
			for _, compiled := range []bool{false, true} {
				kind, cfg, compiled := kind, cfg, compiled
				path := map[bool]string{false: "interpreted", true: "compiled"}[compiled]
				t.Run(fmt.Sprintf("%s/%s/%s", kind, cfg.Name, path), func(t *testing.T) {
					// loaded returns a router with the corpus queued and a
					// recorder large enough to retain the whole run.
					loaded := func() (*router.TACO, *obs.FlightRecorder, int64) {
						tr := buildRouter(t, kind, cfg, routes)
						rec := tr.ArmRecorder(1 << 17)
						if compiled {
							if err := tr.UseCompiled(); err != nil {
								t.Fatal(err)
							}
						}
						delivered := int64(0)
						for j, p := range pkts {
							if tr.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq}) {
								delivered++
							}
						}
						return tr, rec, delivered
					}
					// stepped runs tr to the end, checking the cycle numbering
					// and that each event belongs to the cycle reporting it.
					stepped := func(tr *router.TACO, expected, budget int64) ([]obs.RecEvent, error) {
						var all []obs.RecEvent
						next := int64(0)
						paused, err := tr.RunStepped(expected, budget, func(cycle int64, pc int, events []obs.RecEvent) bool {
							if cycle != next {
								t.Fatalf("cycle %d reported after cycle %d", cycle, next-1)
							}
							next++
							for _, e := range events {
								// Kinds up to EvHalt are the machine's moves and carry
								// the PC; line-card push/pop events carry none.
								if e.Cycle != cycle || (e.Kind <= obs.EvHalt && int(e.PC) != pc) {
									t.Fatalf("cycle %d pc %d reported event %+v", cycle, pc, e)
								}
							}
							all = append(all, events...)
							return true
						})
						if paused {
							t.Fatal("run paused though the observer never asked")
						}
						if got := tr.Machine.Stats().Cycles; next != got {
							t.Fatalf("%d cycles reported, %d executed", next, got)
						}
						return all, err
					}

					const budget = 20_000_000
					trB, recB, delivered := loaded()
					trS, _, _ := loaded()
					if err := trB.Run(delivered, budget); err != nil {
						t.Fatal(err)
					}
					events, err := stepped(trS, delivered, budget)
					if err != nil {
						t.Fatal(err)
					}
					if recB.Dropped() != 0 {
						t.Fatalf("recorder too small for the run: %d events overwritten", recB.Dropped())
					}
					if !reflect.DeepEqual(events, recB.Tail()) {
						t.Errorf("per-cycle events (%d) are not the batch run's recorder tail (%d)",
							len(events), recB.Len())
					}
					// Stats, PC, halt flag, sockets, card stats with drop
					// counters, latencies and every interface's output (the
					// fates): the second router is the stepped one.
					compareRouters(t, trB, trS)

					// Out of budget, both return the same StallError: cause,
					// cycle, PC, queue state, sockets and recorder tail.
					const tiny = 300
					trB, _, _ = loaded()
					trS, _, _ = loaded()
					var seB, seS *router.StallError
					if err := trB.Run(delivered, tiny); !errors.As(err, &seB) {
						t.Fatalf("batch run under budget %d: %v, want a *StallError", tiny, err)
					}
					if _, err := stepped(trS, delivered, tiny); !errors.As(err, &seS) {
						t.Fatalf("stepped run under budget %d: %v, want a *StallError", tiny, err)
					}
					if !reflect.DeepEqual(seS, seB) {
						t.Errorf("stall dumps differ:\nstepped: %+v\nbatch:   %+v", seS, seB)
					}
					if n := len(seB.Tail); n == 0 || seB.Tail[n-1].Kind != obs.EvStall {
						t.Errorf("stall tail does not end in the watchdog's verdict")
					}
				})
			}
		}
	}
}

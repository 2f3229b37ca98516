package net

import (
	"testing"
)

// FuzzTopologyEvents throws randomized event schedules — flaps, crashes
// and restarts, poison storms, probe waves — at small meshes, over the
// campaign's lossy, corrupting wires when bit 7 of data[0] is set, and
// then heals everything: every run must quiesce back to FIB-vs-oracle
// equality, loop-free forwarding, a clean probe sweep, and conserved
// drop accounting. Any panic, divergence, or unexplained count is a
// real bug in the mesh, the RIPng engine, or the invariant checkers.
func FuzzTopologyEvents(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 3, 2, 0, 5})
	f.Add([]byte{1, 6, 1, 2, 7, 3, 0, 0, 9, 1})
	f.Add([]byte{2, 10, 2, 4, 0, 1, 1, 13})
	f.Add([]byte{3, 4, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{0x81, 6, 1, 2, 7, 3, 0, 0, 9, 1, 3, 5, 2})
	f.Add([]byte{0x83, 9, 0, 1, 3, 1, 4, 5, 2, 0, 1, 3, 7, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		kinds := []string{"line", "ring", "scalefree", "fattree"}
		kind := kinds[int(data[0])%len(kinds)]
		size := 3 + int(data[1])%8 // 3..10 (fattree: arity forced even below)
		if kind == "fattree" {
			size = 2 + 2*(int(data[1])%2) // 2 or 4
		}
		topo, err := Generate(kind, size, 1)
		if err != nil {
			t.Fatalf("Generate(%s, %d): %v", kind, size, err)
		}
		m, err := NewMesh(topo, Options{Seed: 99, Mix: "golden"})
		if err != nil {
			t.Fatal(err)
		}

		// Decode the event schedule: 3 bytes per event, ticks strictly
		// advancing so schedules replay deterministically.
		at := int64(2)
		maxAt := at
		deadNodes := map[int]bool{}
		for i := 2; i+2 < len(data) && i < 2+3*24; i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			switch op % 4 {
			case 0: // flap: edge a down for 1..16 ticks
				ei := int(a) % len(topo.Edges)
				down := int64(b)%16 + 1
				m.ScheduleEdge(ei, at, false)
				m.ScheduleEdge(ei, at+down, true)
				if at+down > maxAt {
					maxAt = at + down
				}
			case 1: // crash node a, restart after 1..16 ticks
				nodeID := int(a) % topo.N
				if !deadNodes[nodeID] {
					down := int64(b)%16 + 1
					m.ScheduleCrash(nodeID, at, at+down)
					deadNodes[nodeID] = true
					if at+down > maxAt {
						maxAt = at + down
					}
				}
			case 2: // poison storm from node a
				m.ScheduleStorm(int(a)%topo.N, at)
			case 3: // probe wave
				// Waves fire inline below once the clock reaches at.
			}
			at += int64(b)%5 + 1
			if at > maxAt {
				maxAt = at
			}
		}

		// Run through the event window (probe waves every 6 ticks), then
		// restore perfect wires, heal every link and let the mesh quiesce.
		if data[0]&0x80 != 0 {
			m.SetLinkFaults(chaosLoss, chaosCorrupt)
		}
		for m.Now() <= maxAt {
			if m.Now()%6 == 0 {
				m.WaveProbes(1)
			}
			m.Step()
		}
		m.SetLinkFaults(0, 0)
		for ei := range topo.Edges {
			m.ScheduleEdge(ei, m.Now(), true)
		}
		if _, ok := m.RunUntilConverged(2 * m.convergeBudget()); !ok {
			t.Fatalf("%s (%d events to tick %d) did not quiesce: %s",
				topo.Name, len(data)/3, maxAt, m.Divergence())
		}
		// FIB-vs-oracle equality can hold on a route still aging from
		// before the heal: a neighbour that was cut off, or crashed and
		// came back, refreshes it only with its next periodic update,
		// which may land the tick after the route times out. Let every
		// such timer run out, then require convergence again.
		m.RunTicks(int64(DefaultTimeoutTicks))
		if _, ok := m.RunUntilConverged(2 * m.convergeBudget()); !ok {
			t.Fatalf("%s did not stay converged a route timeout after healing: %s",
				topo.Name, m.Divergence())
		}
		if s := m.NextHopSound(); s != "" {
			t.Fatalf("%s: %s", topo.Name, s)
		}

		// Clean converged sweep: everything must deliver.
		m.SetConvergedWindow(true)
		launched := m.SweepProbes(2)
		deadline := m.Now() + maxProbeAgeTicks + 4
		for m.InFlight() > 0 && m.Now() < deadline {
			m.Step()
		}
		m.SetConvergedWindow(false)
		delivered := 0
		for _, oc := range m.DrainOutcomes() {
			if oc.Sweep && oc.Result == "delivered" {
				delivered++
			}
		}
		if delivered != launched {
			t.Fatalf("%s: sweep delivered %d of %d", topo.Name, delivered, launched)
		}
		if vs := m.Violations(); len(vs) != 0 {
			t.Fatalf("%s: violations: %v", topo.Name, vs)
		}
		if probs := m.AuditConservation(); len(probs) != 0 {
			t.Fatalf("%s: audit: %v", topo.Name, probs)
		}
	})
}

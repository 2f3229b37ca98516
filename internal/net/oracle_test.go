package net

import (
	"fmt"
	"testing"
)

// nextHopSoundWalkAll is NextHopSound before it stopped at nodes already
// proven sound: every (prefix, start) chain walked to its end.
func nextHopSoundWalkAll(m *Mesh) string {
	o := m.oracle()
	visited := make([]int32, len(m.nodes))
	walk := int32(0)
	for p := range o.prefixes {
		addr := probeDst(o.prefixes[p])
		for start := range m.nodes {
			if !m.nodes[start].alive || !o.Reachable(p, start) {
				continue
			}
			walk++
			cur := start
			for {
				if visited[cur] == walk {
					return fmt.Sprintf("prefix %v: forwarding loop through node %d (from node %d)",
						o.prefixes[p], cur, start)
				}
				visited[cur] = walk
				n := m.nodes[cur]
				r, ok := n.table.Lookup(addr)
				if !ok {
					return fmt.Sprintf("prefix %v: black hole at node %d (from node %d)",
						o.prefixes[p], cur, start)
				}
				if r.Iface >= len(n.nbrs) {
					if o.Owner(p) != cur {
						return fmt.Sprintf("prefix %v: misdelivery at non-owner node %d (from node %d)",
							o.prefixes[p], cur, start)
					}
					break
				}
				cur = n.nbrs[r.Iface].node
			}
		}
	}
	return ""
}

// checkSoundMatchesWalkAll requires NextHopSound's verdict and message to
// be the full walk's, and returns the verdict.
func checkSoundMatchesWalkAll(t *testing.T, m *Mesh, phase string) string {
	t.Helper()
	got, want := m.NextHopSound(), nextHopSoundWalkAll(m)
	if got != want {
		t.Fatalf("%s: NextHopSound %q, full walk %q", phase, got, want)
	}
	return got
}

// TestNextHopSoundMatchesWalkAll holds the walk that stops at proven
// nodes to the walk that does not, on converged meshes, at every tick of
// a cut/crash/storm transient under lossy links, after a black hole is
// planted, and on a hand-made forwarding loop.
func TestNextHopSoundMatchesWalkAll(t *testing.T) {
	for _, tc := range []struct {
		kind string
		size int
	}{
		{"ring", 6},
		{"scalefree", 12},
		{"fattree", 4},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			m := mustMesh(t, tc.kind, tc.size, Options{Seed: 1, Mix: "mixed"})
			runToConvergence(t, m, "cold start")
			if s := checkSoundMatchesWalkAll(t, m, "converged"); s != "" {
				t.Fatalf("converged mesh unsound: %s", s)
			}

			now := m.Now()
			m.ScheduleEdge(0, now+1, false)
			m.ScheduleEdge(0, now+40, true)
			m.ScheduleCrash(m.topo.N-1, now+5, now+60)
			m.ScheduleStorm(1, now+10)
			m.SetLinkFaults(0.02, 0.01)
			unsound := 0
			for m.Now() < now+80 {
				m.Step()
				if checkSoundMatchesWalkAll(t, m, fmt.Sprintf("tick %d", m.Now())) != "" {
					unsound++
				}
			}
			m.SetLinkFaults(0, 0)
			t.Logf("%d of 80 transient ticks unsound", unsound)

			runToConvergence(t, m, "reconverge")
			owners := m.topo.StubOwners
			victim := owners[len(owners)-1]
			if !m.InjectBlackhole(victim, StubPrefix(victim)) {
				t.Fatal("no route to delete")
			}
			if checkSoundMatchesWalkAll(t, m, "blackhole") == "" {
				t.Fatal("planted black hole not found")
			}
		})
	}
}

// TestNextHopSoundFindsHandMadeLoop points node 2 of a converged 5-node
// line back at node 3 for node 0's prefix; node 3 already forwards it to
// node 2, so every walk from node 2 up the line loops.
func TestNextHopSoundFindsHandMadeLoop(t *testing.T) {
	m := mustMesh(t, "line", 5, Options{Seed: 1})
	runToConvergence(t, m, "cold start")
	n2 := m.nodes[2]
	pfx := StubPrefix(0)
	r, ok := n2.table.Lookup(probeDst(pfx))
	if !ok {
		t.Fatal("node 2 has no route to node 0's prefix")
	}
	for i, nb := range n2.nbrs {
		if nb.node == 3 {
			r.Iface = i
		}
	}
	n2.table.Delete(pfx)
	if err := n2.table.Insert(r); err != nil {
		t.Fatal(err)
	}
	got := checkSoundMatchesWalkAll(t, m, "hand-made loop")
	want := fmt.Sprintf("prefix %v: forwarding loop through node 2 (from node 2)", pfx)
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

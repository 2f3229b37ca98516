package net

import (
	"fmt"
	"testing"

	"taco/internal/bits"
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

// TestDivergenceAllocatesOnlyFIBCopies: a convergence check on a
// converged mesh allocates no more than the per-node FIB listings it
// compares; the oracle's prefix index is built once per topology state,
// not once per node and call.
func TestDivergenceAllocatesOnlyFIBCopies(t *testing.T) {
	m := mustMesh(t, "fattree", 6, Options{Seed: 1}) // 18 prefixes: more than a map keeps on the stack
	if _, ok := m.RunUntilConverged(m.convergeBudget()); !ok {
		t.Fatalf("no convergence: %s", m.Divergence())
	}
	listings := testing.AllocsPerRun(10, func() {
		for id := range m.nodes {
			_ = m.Routes(id)
		}
	})
	got := testing.AllocsPerRun(10, func() {
		if d := m.Divergence(); d != "" {
			t.Fatalf("converged mesh diverges: %s", d)
		}
	})
	if got > listings {
		t.Errorf("Divergence allocates %v times, the %d FIB listings %v", got, len(m.nodes), listings)
	}
}

// TestOracleDuplicatePrefixes holds the prefix index to the map it
// replaced: a node wants each reachable prefix once, and a route for a
// prefix listed more than once stands at the last index the node can
// reach. StubPrefix repeats for node ids 65536 apart, so owners 0, 65536
// and 131072 share one prefix.
func TestOracleDuplicatePrefixes(t *testing.T) {
	o := &Oracle{index: map[bits.Prefix]int{}}
	// Distances of nodes 0..3 to each owner; -1 is unreachable.
	o.add(0, []int{0, 1, -1, -1})
	o.add(1, []int{1, 0, 1, -1})
	o.add(65536, []int{-1, 2, 3, -1})
	o.add(131072, []int{-1, -1, 1, -1})
	for node := 0; node < 4; node++ {
		want := map[bits.Prefix]int{}
		for p := range o.prefixes {
			if o.Reachable(p, node) {
				want[o.prefixes[p]] = p
			}
		}
		got := 0
		for p := range o.prefixes {
			if o.Reachable(p, node) && o.reachableIndex(o.next[p], node) < 0 {
				got++
			}
		}
		if got != len(want) {
			t.Errorf("node %d: wants %d prefixes, map %d", node, got, len(want))
		}
		for _, pfx := range []bits.Prefix{StubPrefix(0), StubPrefix(1), StubPrefix(2)} {
			p, ok := want[pfx]
			if !ok {
				p = -1
			}
			q := -1
			if first, ok := o.index[pfx]; ok {
				q = o.reachableIndex(first, node)
			}
			if q != p {
				t.Errorf("node %d, %v: index %d, map %d", node, pfx, q, p)
			}
		}
	}
	if o.PrefixIndex(StubPrefix(65536)) != 0 || o.PrefixIndex(StubPrefix(1)) != 1 || o.PrefixIndex(StubPrefix(2)) != -1 {
		t.Errorf("PrefixIndex must return the first index")
	}
}

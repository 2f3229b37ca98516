package net

import (
	"fmt"

	"taco/internal/bits"
	"taco/internal/ripng"
)

// Oracle is the whole-network golden reference: for the current up
// topology (links up in both directions, nodes alive) it holds every
// node's hop distance to every stub prefix, computed by BFS. RIPng with
// unit interface costs must converge to exactly these distances:
// a prefix at distance d is carried at metric d+1, and prefixes at
// metric >= 16 must not appear in any FIB.
type Oracle struct {
	// prefixes lists the advertised stub prefixes in StubOwners order.
	prefixes []bits.Prefix
	owners   []int
	// dist[p][n] is node n's hop distance to prefix p's owner; -1 means
	// unreachable (owner dead or partitioned away).
	dist [][]int
	// index maps each prefix to its first index; next[p] is the next
	// index with prefixes[p]'s prefix, -1 after the last (StubPrefix
	// repeats only for node ids 65536 apart).
	index map[bits.Prefix]int
	next  []int
}

// Reachable reports whether node can carry prefix index p in its FIB:
// the owner is reachable and the resulting metric stays below Infinity.
func (o *Oracle) Reachable(p, node int) bool {
	d := o.dist[p][node]
	return d >= 0 && d+1 < ripng.Infinity
}

// Metric returns the converged metric node must carry for prefix index
// p (distance + 1); only meaningful when Reachable.
func (o *Oracle) Metric(p, node int) int { return o.dist[p][node] + 1 }

// Dist returns node's hop distance to prefix index p (-1 unreachable).
func (o *Oracle) Dist(p, node int) int { return o.dist[p][node] }

// Owner returns the owning node of prefix index p.
func (o *Oracle) Owner(p int) int { return o.owners[p] }

// PrefixIndex resolves a stub prefix to its oracle index, -1 if unknown.
func (o *Oracle) PrefixIndex(pfx bits.Prefix) int {
	if p, ok := o.index[pfx]; ok {
		return p
	}
	return -1
}

// reachableIndex returns the last index carrying p's prefix that node
// can reach, at p or after it, or -1.
func (o *Oracle) reachableIndex(p, node int) int {
	last := -1
	for ; p >= 0; p = o.next[p] {
		if o.Reachable(p, node) {
			last = p
		}
	}
	return last
}

// computeOracle BFS-walks the current up topology. up(edgeIdx) reports
// whether the undirected edge currently passes traffic in both
// directions; alive(node) whether the node is running.
func (m *Mesh) computeOracle() *Oracle {
	o := &Oracle{}
	adj := make([][]int, m.topo.N)
	for ei, e := range m.topo.Edges {
		if !m.edgeUp(ei) {
			continue
		}
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	dist := func(src int) []int {
		d := make([]int, m.topo.N)
		for i := range d {
			d[i] = -1
		}
		if !m.nodes[src].alive {
			return d
		}
		d[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if d[v] < 0 && m.nodes[v].alive {
					d[v] = d[u] + 1
					queue = append(queue, v)
				}
			}
		}
		return d
	}
	o.index = make(map[bits.Prefix]int, len(m.topo.StubOwners))
	for _, owner := range m.topo.StubOwners {
		o.add(owner, dist(owner))
	}
	return o
}

// add appends owner's stub prefix with its distance vector and links it
// into the prefix index.
func (o *Oracle) add(owner int, dist []int) {
	p, pfx := len(o.prefixes), StubPrefix(owner)
	o.prefixes = append(o.prefixes, pfx)
	o.owners = append(o.owners, owner)
	o.dist = append(o.dist, dist)
	o.next = append(o.next, -1)
	q, dup := o.index[pfx]
	if !dup {
		o.index[pfx] = p
		return
	}
	for o.next[q] >= 0 {
		q = o.next[q]
	}
	o.next[q] = p
}

// oracle returns the cached oracle, recomputing it when topology state
// (link schedules crossing now, crash/restart) has changed.
func (m *Mesh) oracle() *Oracle {
	if m.cachedOracle == nil || m.oracleDirty {
		m.cachedOracle = m.computeOracle()
		m.oracleDirty = false
	}
	return m.cachedOracle
}

// fibDivergence compares one node's FIB against the oracle. It returns
// "" when the FIB is exactly the oracle's converged state: every
// reachable prefix present at metric dist+1 with a sound output
// interface (a stub interface on the owner, otherwise an interface
// leading to a neighbor one hop closer), and nothing else.
func (m *Mesh) fibDivergence(o *Oracle, id int) string {
	n := m.nodes[id]
	if !n.alive {
		return ""
	}
	// The oracle wants each reachable prefix once; a prefix listed more
	// than once stands at its last index the node can reach.
	want := 0
	for p := range o.prefixes {
		if o.Reachable(p, id) && o.reachableIndex(o.next[p], id) < 0 {
			want++
		}
	}
	routes := n.table.Routes()
	if len(routes) != want {
		return fmt.Sprintf("node %d: %d routes, oracle wants %d", id, len(routes), want)
	}
	for _, r := range routes {
		p := -1
		if first, ok := o.index[r.Prefix]; ok {
			p = o.reachableIndex(first, id)
		}
		if p < 0 {
			return fmt.Sprintf("node %d: unexpected route %v", id, r)
		}
		if r.Metric != o.Metric(p, id) {
			return fmt.Sprintf("node %d: %v metric %d, oracle wants %d",
				id, r.Prefix, r.Metric, o.Metric(p, id))
		}
		if o.Owner(p) == id {
			if r.Iface < len(n.nbrs) {
				return fmt.Sprintf("node %d: own stub %v via link interface %d",
					id, r.Prefix, r.Iface)
			}
			continue
		}
		if r.Iface >= len(n.nbrs) {
			return fmt.Sprintf("node %d: %v via stub interface %d", id, r.Prefix, r.Iface)
		}
		nb := n.nbrs[r.Iface].node
		if o.Dist(p, nb) != o.Dist(p, id)-1 {
			return fmt.Sprintf("node %d: %v next hop node %d at distance %d, not %d",
				id, r.Prefix, nb, o.Dist(p, nb), o.Dist(p, id)-1)
		}
	}
	return ""
}

// Converged reports whether every alive node's FIB matches the oracle.
func (m *Mesh) Converged() bool { return m.Divergence() == "" }

// Divergence returns the first FIB-vs-oracle mismatch in node order, or
// "" when the mesh is converged.
func (m *Mesh) Divergence() string {
	o := m.oracle()
	for id := range m.nodes {
		if d := m.fibDivergence(o, id); d != "" {
			return d
		}
	}
	return ""
}

// NextHopSound walks every (node, prefix) pair's FIB next-hop chain and
// returns the first forwarding loop or dead end it finds, or "". Unlike
// Divergence it does not require metric optimality — it is the pure
// loop-freedom invariant, meaningful even mid-convergence.
//
// A walk stops at a node an earlier walk proved sound for the same
// prefix: that node's own chain reaches the owner, and it cannot lead
// back into the current walk, or its own chain would loop. So the
// verdict and the first failure are those of walking every chain to the
// end.
func (m *Mesh) NextHopSound() string {
	o := m.oracle()
	// visited[n] holds the last (prefix, start) walk that passed node n,
	// so one slice serves every walk without clearing; sound[n] holds
	// p+1 once a walk through n reached prefix p's owner.
	visited := make([]int32, len(m.nodes))
	sound := make([]int32, len(m.nodes))
	var path []int
	walk := int32(0)
	for p := range o.prefixes {
		proven := int32(p + 1)
		addr := probeDst(o.prefixes[p])
		for start := range m.nodes {
			if !m.nodes[start].alive || !o.Reachable(p, start) || sound[start] == proven {
				continue
			}
			walk++
			path = path[:0]
			for cur := start; sound[cur] != proven; {
				if visited[cur] == walk {
					return fmt.Sprintf("prefix %v: forwarding loop through node %d (from node %d)",
						o.prefixes[p], cur, start)
				}
				visited[cur] = walk
				path = append(path, cur)
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
					break // delivered to the owner's stub
				}
				cur = n.nbrs[r.Iface].node
			}
			for _, n := range path {
				sound[n] = proven
			}
		}
	}
	return ""
}

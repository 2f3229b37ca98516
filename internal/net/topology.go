package net

import (
	"fmt"
	"sort"

	"taco/internal/bits"
	"taco/internal/workload"
)

// Edge is one undirected adjacency between two router nodes. Generators
// never emit self-loops or parallel edges.
type Edge struct {
	A, B int
}

// Topology is a generated router graph: N nodes, an edge list, and the
// set of nodes that own a stub network (a directly connected prefix that
// the rest of the mesh must learn via RIPng and that probe datagrams are
// addressed to).
type Topology struct {
	// Name identifies the generator and its size parameter
	// ("fattree-8", "ring-12") for reports.
	Name string
	// Kind is the generator name: "line", "ring", "scalefree" or
	// "fattree".
	Kind string
	// Size is the generator parameter: node count for line/ring/
	// scalefree, arity k for fattree.
	Size int
	// N is the node count.
	N int
	// Edges is the undirected adjacency list, in deterministic
	// generation order with A < B.
	Edges []Edge
	// StubOwners lists the nodes owning a stub prefix, ascending.
	StubOwners []int
}

// TopologyKinds lists the generator names accepted by Generate, sorted.
var TopologyKinds = []string{"fattree", "line", "ring", "scalefree"}

// Generate builds the named topology at the given size. The seed only
// matters for the randomized generators (scalefree).
func Generate(kind string, size int, seed uint64) (Topology, error) {
	switch kind {
	case "line":
		return Line(size)
	case "ring":
		return Ring(size)
	case "scalefree":
		return ScaleFree(size, seed)
	case "fattree":
		return FatTree(size)
	}
	return Topology{}, fmt.Errorf("net: unknown topology kind %q (valid: %v)", kind, TopologyKinds)
}

// Line returns n nodes in a chain; every node owns a stub prefix.
func Line(n int) (Topology, error) {
	if n < 2 {
		return Topology{}, fmt.Errorf("net: line needs >= 2 nodes, got %d", n)
	}
	t := Topology{Name: fmt.Sprintf("line-%d", n), Kind: "line", Size: n, N: n}
	for i := 0; i+1 < n; i++ {
		t.Edges = append(t.Edges, Edge{i, i + 1})
	}
	for i := 0; i < n; i++ {
		t.StubOwners = append(t.StubOwners, i)
	}
	return t, nil
}

// Ring returns n nodes in a cycle; every node owns a stub prefix.
func Ring(n int) (Topology, error) {
	if n < 3 {
		return Topology{}, fmt.Errorf("net: ring needs >= 3 nodes, got %d", n)
	}
	t, err := Line(n)
	if err != nil {
		return Topology{}, err
	}
	t.Name = fmt.Sprintf("ring-%d", n)
	t.Kind = "ring"
	t.Edges = append(t.Edges, Edge{0, n - 1})
	return t, nil
}

// ScaleFree returns an ISP-like preferential-attachment graph
// (Barabási–Albert, m = 2): a seed triangle, then each new node
// attaches to two distinct existing nodes chosen proportionally to
// degree. Every node owns a stub prefix.
func ScaleFree(n int, seed uint64) (Topology, error) {
	if n < 3 {
		return Topology{}, fmt.Errorf("net: scalefree needs >= 3 nodes, got %d", n)
	}
	t := Topology{Name: fmt.Sprintf("scalefree-%d", n), Kind: "scalefree", Size: n, N: n}
	t.Edges = append(t.Edges, Edge{0, 1}, Edge{0, 2}, Edge{1, 2})
	// endpoints lists every edge endpoint once, so a uniform draw over
	// it is a degree-proportional draw over nodes.
	endpoints := []int{0, 1, 0, 2, 1, 2}
	rng := workload.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	for v := 3; v < n; v++ {
		var picked []int
		for len(picked) < 2 {
			u := endpoints[rng.Intn(len(endpoints))]
			dup := false
			for _, p := range picked {
				if p == u {
					dup = true
				}
			}
			if !dup {
				picked = append(picked, u)
			}
		}
		sort.Ints(picked)
		for _, u := range picked {
			t.Edges = append(t.Edges, Edge{u, v})
			endpoints = append(endpoints, u, v)
		}
	}
	for i := 0; i < n; i++ {
		t.StubOwners = append(t.StubOwners, i)
	}
	return t, nil
}

// FatTree returns the k-ary fat-tree of data-center routing: (k/2)²
// core switches, k pods of k/2 aggregation plus k/2 edge switches,
// every edge switch fully meshed to its pod's aggregation layer, and
// aggregation switch a of every pod wired to core switches
// [a·k/2, (a+1)·k/2). Only edge switches own stub prefixes (the
// top-of-rack subnets). k must be even and >= 2.
func FatTree(k int) (Topology, error) {
	if k < 2 || k%2 != 0 {
		return Topology{}, fmt.Errorf("net: fat-tree arity must be even and >= 2, got %d", k)
	}
	h := k / 2
	core := h * h
	t := Topology{Name: fmt.Sprintf("fattree-%d", k), Kind: "fattree", Size: k,
		N: core + k*k}
	aggID := func(pod, a int) int { return core + pod*k + a }
	edgeID := func(pod, e int) int { return core + pod*k + h + e }
	for pod := 0; pod < k; pod++ {
		for e := 0; e < h; e++ {
			for a := 0; a < h; a++ {
				t.Edges = append(t.Edges, Edge{aggID(pod, a), edgeID(pod, e)})
			}
			t.StubOwners = append(t.StubOwners, edgeID(pod, e))
		}
		for a := 0; a < h; a++ {
			for j := 0; j < h; j++ {
				t.Edges = append(t.Edges, Edge{a*h + j, aggID(pod, a)})
			}
		}
	}
	sort.Ints(t.StubOwners)
	for i, e := range t.Edges {
		if e.A > e.B {
			t.Edges[i] = Edge{e.B, e.A}
		}
	}
	return t, nil
}

// StubPrefix returns node's stub prefix, 2001:db8:<node>::/48. It is
// defined for every node id; only StubOwners actually advertise theirs.
func StubPrefix(node int) bits.Prefix {
	return bits.MakePrefix(bits.Word128{
		Hi: 0x2001_0db8_0000_0000 | uint64(uint16(node))<<16,
	}, 48)
}

// Diameter returns the longest shortest-path hop count over the full
// (all links up) topology, via BFS from every node.
func (t Topology) Diameter() int {
	adj := t.adjacency()
	max := 0
	dist := make([]int, t.N)
	queue := make([]int, 0, t.N)
	for s := 0; s < t.N; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					if dist[v] > max {
						max = dist[v]
					}
					queue = append(queue, v)
				}
			}
		}
	}
	return max
}

func (t Topology) adjacency() [][]int {
	adj := make([][]int, t.N)
	for _, e := range t.Edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	return adj
}

// Validate checks structural sanity: in-range endpoints, no self-loops,
// no parallel edges, stub owners in range and strictly ascending.
func (t Topology) Validate() error {
	seen := make(map[Edge]bool, len(t.Edges))
	for _, e := range t.Edges {
		if e.A < 0 || e.A >= t.N || e.B < 0 || e.B >= t.N {
			return fmt.Errorf("net: %s: edge %v out of range", t.Name, e)
		}
		if e.A == e.B {
			return fmt.Errorf("net: %s: self-loop at node %d", t.Name, e.A)
		}
		k := e
		if k.A > k.B {
			k = Edge{e.B, e.A}
		}
		if seen[k] {
			return fmt.Errorf("net: %s: parallel edge %v", t.Name, k)
		}
		seen[k] = true
	}
	for i, s := range t.StubOwners {
		if s < 0 || s >= t.N {
			return fmt.Errorf("net: %s: stub owner %d out of range", t.Name, s)
		}
		if i > 0 && t.StubOwners[i-1] >= s {
			return fmt.Errorf("net: %s: stub owners not strictly ascending", t.Name)
		}
	}
	return nil
}

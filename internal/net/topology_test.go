package net

import (
	"testing"
)

func TestGeneratorsValidate(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		size  int
		nodes int
		edges int
		stubs int
	}{
		{"line", 4, 4, 3, 4},
		{"ring", 5, 5, 5, 5},
		{"scalefree", 20, 20, 3 + 17*2, 20},
		{"fattree", 4, 4 + 16, 32, 8},
		{"fattree", 8, 16 + 64, 256, 32},
	} {
		topo, err := Generate(tc.kind, tc.size, 42)
		if err != nil {
			t.Fatalf("%s-%d: %v", tc.kind, tc.size, err)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s-%d: %v", tc.kind, tc.size, err)
		}
		if topo.N != tc.nodes || len(topo.Edges) != tc.edges || len(topo.StubOwners) != tc.stubs {
			t.Fatalf("%s-%d: got N=%d edges=%d stubs=%d, want %d/%d/%d",
				tc.kind, tc.size, topo.N, len(topo.Edges), len(topo.StubOwners),
				tc.nodes, tc.edges, tc.stubs)
		}
	}
}

func TestGeneratorErrors(t *testing.T) {
	for _, tc := range []struct {
		kind string
		size int
	}{
		{"line", 1}, {"ring", 2}, {"scalefree", 2},
		{"fattree", 3}, {"fattree", 0}, {"mobius", 4},
	} {
		if _, err := Generate(tc.kind, tc.size, 1); err == nil {
			t.Errorf("Generate(%q, %d) accepted bad input", tc.kind, tc.size)
		}
	}
}

// The fat tree must be what the literature says it is: every edge
// switch has k/2 uplinks, every aggregation switch k/2 up + k/2 down,
// every core switch one link per pod, and the diameter of the switch
// fabric is at most 4 (edge-agg-core-agg-edge).
func TestFatTreeStructure(t *testing.T) {
	const k = 6
	topo, err := FatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	h := k / 2
	core := h * h
	deg := topo.Degrees()
	for n := 0; n < core; n++ {
		if deg[n] != k {
			t.Fatalf("core %d: degree %d, want one link per pod (%d)", n, deg[n], k)
		}
	}
	stubSet := map[int]bool{}
	for _, s := range topo.StubOwners {
		stubSet[s] = true
		if s < core {
			t.Fatalf("core switch %d owns a stub", s)
		}
	}
	for n := core; n < topo.N; n++ {
		inPod := (n - core) % k
		isEdge := inPod >= h
		if isEdge != stubSet[n] {
			t.Fatalf("node %d: edge=%v stub=%v", n, isEdge, stubSet[n])
		}
		want := h
		if !isEdge {
			want = 2 * h
		}
		if deg[n] != want {
			t.Fatalf("pod switch %d: degree %d, want %d", n, deg[n], want)
		}
	}
	if d := topo.Diameter(); d != 4 {
		t.Fatalf("fat-tree diameter %d, want 4", d)
	}
}

// Scale-free generation is deterministic per seed and varies with it.
func TestScaleFreeSeeded(t *testing.T) {
	a1, _ := ScaleFree(30, 7)
	a2, _ := ScaleFree(30, 7)
	b, _ := ScaleFree(30, 8)
	if len(a1.Edges) != len(a2.Edges) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range a1.Edges {
		if a1.Edges[i] != a2.Edges[i] {
			t.Fatalf("same seed diverged at edge %d", i)
		}
	}
	same := len(a1.Edges) == len(b.Edges)
	if same {
		for i := range a1.Edges {
			if a1.Edges[i] != b.Edges[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

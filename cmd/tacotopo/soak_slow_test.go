//go:build slow

package main

import (
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/forensics"
)

// TestTopoSoak is the network-scale gate (`make topo-soak`): a seeded
// fat-tree k=14 chaos campaign (245 nodes) passes with the same text,
// CSV and JSON at -workers 1 and 8; convergence curves come out for
// three sizes; and an injected blackhole fails its campaign with
// forensics bundles that each replay to the recorded failure.
func TestTopoSoak(t *testing.T) {
	reports := map[string][3]string{}
	for _, workers := range []string{"1", "8"} {
		dir := t.TempDir()
		code, stdout, stderr := runTool("-campaign", "-topo", "fattree", "-size", "14", "-mix", "mixed",
			"-seed", "3", "-workers", workers,
			"-csv-out", filepath.Join(dir, "r.csv"), "-json-out", filepath.Join(dir, "r.json"))
		if code != 0 {
			t.Fatalf("-workers %s: exit %d: %s", workers, code, stderr)
		}
		reports[workers] = [3]string{stdout, readFile(t, dir, "r.csv"), readFile(t, dir, "r.json")}
	}
	if reports["1"] != reports["8"] {
		t.Error("fat-tree-14 reports differ between -workers 1 and 8")
	}

	code, stdout, stderr := runTool("-sizes", "6,10,14", "-topo", "fattree", "-mix", "mixed", "-seed", "3")
	if code != 0 || strings.Count(stdout, "\n") != 4 {
		t.Errorf("convergence curves: exit %d\nstdout:\n%sstderr:\n%s", code, stdout, stderr)
	}

	dir := t.TempDir()
	code, _, stderr = runTool("-campaign", "-topo", "ring", "-size", "12", "-mix", "mixed", "-seed", "3",
		"-inject-violation", "-forensics-out", dir)
	if code != 1 {
		t.Fatalf("injected violation: exit %d, want 1: %s", code, stderr)
	}
	bundles, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(bundles) == 0 {
		t.Fatal("injected violation wrote no forensics bundle")
	}
	for _, path := range bundles {
		b, err := forensics.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := forensics.Replay(b, forensics.ReplayOptions{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := forensics.CheckReproduction(b, res); err != nil {
			t.Errorf("%s does not reproduce: %v", path, err)
		}
	}
}

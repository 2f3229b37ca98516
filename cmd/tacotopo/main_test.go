package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/cliutil"
)

// runTool runs tacotopo in-process and returns its exit status, stdout
// and stderr.
func runTool(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// The campaign reports under testdata/topo, text on stdout plus the
// -csv-out and -json-out files, must come out byte for byte at any
// -workers. They were written with the sequential table, so the runs
// name it.
func TestCampaignReportsMatchGoldens(t *testing.T) {
	for _, g := range []struct{ topo, size, seed string }{
		{"fattree", "6", "3"}, {"scalefree", "40", "7"}, {"ring", "12", "3"},
	} {
		golden := filepath.Join("..", "..", "testdata", "topo", g.topo+"-"+g.size+"-seed"+g.seed)
		for _, workers := range []string{"1", "8"} {
			dir := t.TempDir()
			code, stdout, stderr := runTool("-campaign", "-topo", g.topo, "-size", g.size, "-mix", "mixed",
				"-seed", g.seed, "-table", "sequential", "-workers", workers,
				"-csv-out", filepath.Join(dir, "r.csv"), "-json-out", filepath.Join(dir, "r.json"))
			if code != 0 {
				t.Fatalf("%s at -workers %s: exit %d: %s", golden, workers, code, stderr)
			}
			for ext, got := range map[string]string{".txt": stdout, ".csv": readFile(t, dir, "r.csv"), ".json": readFile(t, dir, "r.json")} {
				if want := readFile(t, golden+ext); got != want {
					t.Errorf("%s%s at -workers %s differs from the golden:\n--- got\n%s--- want\n%s", golden, ext, workers, got, want)
				}
			}
		}
	}
}

// -table takes the names every tool's parser takes, aliases included.
func TestTableAlias(t *testing.T) {
	code, stdout, stderr := runTool("-sizes", "4", "-topo", "line", "-table", "tree")
	if code != 0 || !strings.Contains(stdout, "converged") {
		t.Fatalf("exit %d\nstdout:\n%sstderr:\n%s", code, stdout, stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "nothing to do"},
		{[]string{"-campaign", "-table", "hash"}, 2, `"hash"`},
		{[]string{"-sizes", "4,x"}, 2, `-sizes: bad size "x"`},
		{[]string{"-csv", "r.csv"}, 2, "not defined: -csv"},
		{[]string{"-h"}, 0, "-json-out"},
	} {
		if code, _, stderr := runTool(c.args...); code != c.code || !strings.Contains(stderr, c.stderr) {
			t.Errorf("tacotopo %q: exit %d, stderr %q; want %d and %q", c.args, code, stderr, c.code, c.stderr)
		}
	}
}

func readFile(t *testing.T, path ...string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(path...))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// Every marked output block of README.md and EXPERIMENTS.md that runs
// tacotopo must be one contiguous run of what it prints.
func TestDocBlocks(t *testing.T) {
	for _, err := range cliutil.CheckDocBlocks(filepath.Join("..", ".."), "tacotopo", run) {
		t.Error(err)
	}
}

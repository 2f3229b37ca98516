package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/cliutil"
)

// runTool runs tacoexplore in-process and returns its exit status,
// stdout and stderr.
func runTool(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// The large-table sweep's text and -json must match testdata/largetable
// byte for byte at any -workers: the plain pair was captured before the
// sweep shared its inputs and bulk-built the tiled TCAM, the -churn 300
// pair before the tries and the tree moved to flat storage.
func TestLargeTableSweepMatchesGoldens(t *testing.T) {
	for golden, extra := range map[string][]string{
		"sweep-2000-10000":          nil,
		"sweep-2000-10000-churn300": {"-churn", "300"},
	} {
		for _, workers := range []string{"1", "8"} {
			for ext, format := range map[string][]string{".txt": nil, ".json": {"-json"}} {
				args := append([]string{"-sweep", "largetable", "-table-size", "2000,10000", "-workers", workers}, extra...)
				code, stdout, stderr := runTool(append(args, format...)...)
				if code != 0 {
					t.Fatalf("tacoexplore %q: exit %d: %s", args, code, stderr)
				}
				want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "largetable", golden+ext))
				if err != nil {
					t.Fatal(err)
				}
				if stdout != string(want) {
					t.Errorf("%s%s at -workers %s differs from the golden:\n--- got\n%s--- want\n%s", golden, ext, workers, stdout, want)
				}
			}
		}
	}
}

// The default (compiled) run prints exactly what the reference
// interpreter prints, text and -json alike; the -json leg attaches the
// counters, so their occupancy, utilization and latency fields are
// covered too. The spot-check notice goes to stderr.
func TestCompiledMatchesInterpreted(t *testing.T) {
	for _, format := range [][]string{nil, {"-json"}} {
		args := append([]string{"-table1", "-packets", "16"}, format...)
		code, compiled, stderr := runTool(args...)
		if code != 0 || !strings.Contains(stderr, "spot-checked against the interpreter") {
			t.Fatalf("tacoexplore %q: exit %d, stderr %q", args, code, stderr)
		}
		code, interp, stderr := runTool(append(args, "-interp")...)
		if code != 0 {
			t.Fatalf("tacoexplore %q -interp: exit %d: %s", args, code, stderr)
		}
		if compiled != interp {
			t.Errorf("tacoexplore %q: compiled stdout differs from -interp:\n--- compiled\n%s--- interp\n%s", args, compiled, interp)
		}
	}
}

// -table-kind takes the names every tool's parser takes: aliases, in
// any case.
func TestTableKindAliases(t *testing.T) {
	code, stdout, stderr := runTool("-sweep", "largetable", "-table-kind", "TCAM,cram", "-table-size", "2000")
	if code != 0 || !strings.Contains(stdout, "tiled-tcam") || !strings.Contains(stdout, "compressed") {
		t.Fatalf("exit %d\nstdout:\n%sstderr:\n%s", code, stdout, stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-sweep", "largetable", "-table-kind", "hash"}, 2, `"hash"`},
		{[]string{"-sweep", "largetable", "-table-size", "0"}, 2, `bad size "0"`},
		{[]string{"-sweep", "largetable", "-churn", "-5"}, 2, "bad churn -5"},
		{[]string{"-sweep", "nonesuch"}, 1, `unknown sweep "nonesuch"`},
		{[]string{"-workers"}, 2, "flag needs an argument: -workers"},
		{[]string{"-h"}, 0, "-table-kind"},
	} {
		if code, _, stderr := runTool(c.args...); code != c.code || !strings.Contains(stderr, c.stderr) {
			t.Errorf("tacoexplore %q: exit %d, stderr %q; want %d and %q", c.args, code, stderr, c.code, c.stderr)
		}
	}
}

// Every marked output block of README.md and EXPERIMENTS.md that runs
// tacoexplore must be one contiguous run of what it prints.
func TestDocBlocks(t *testing.T) {
	for _, err := range cliutil.CheckDocBlocks(filepath.Join("..", ".."), "tacoexplore", run) {
		t.Error(err)
	}
}

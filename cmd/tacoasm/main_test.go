package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/cliutil"
)

func TestExitStatus(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "loop.bin")
	for _, c := range []struct {
		args           []string
		code           int
		stdout, stderr string // substrings each stream must hold
	}{
		{[]string{"-figure3"}, 0, "Figure 3 — TACO code optimization", ""},
		{[]string{"-f", filepath.Join("..", "..", "testdata", "trace", "loop.tasm"), "-opt", "-o", bin}, 0, "; wrote ", ""},
		{[]string{"-d", bin}, 0, "->", ""},
		{nil, 2, "", "tacoasm: nothing to do: pass -figure3, -f prog.s or -d prog.bin"},
		{[]string{"-figure3", "-config", "5bus"}, 2, "", `unknown config "5bus"`},
		{[]string{"-h"}, 0, "", "-figure3"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.stdout) || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("tacoasm %q: exit %d\nstdout:\n%sstderr:\n%s", c.args, code, stdout.String(), stderr.String())
		}
	}
}

// Every marked output block of README.md and EXPERIMENTS.md that runs
// tacoasm must be one contiguous run of what it prints.
func TestDocBlocks(t *testing.T) {
	for _, err := range cliutil.CheckDocBlocks(filepath.Join("..", ".."), "tacoasm", run) {
		t.Error(err)
	}
}

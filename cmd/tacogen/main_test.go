package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/cliutil"
)

// Every model goes to stdout, or with -dir into one file each whose
// content is what stdout would show.
func TestModelsOnStdoutAndInDir(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-config", "3bus3fu", "-table", "cam"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	dir := t.TempDir()
	var listing bytes.Buffer
	if code := run([]string{"-config", "3bus3fu", "-table", "cam", "-dir", dir}, &listing, &stderr); code != 0 {
		t.Fatalf("-dir: exit %d: %s", code, stderr.String())
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 4 || strings.Count(listing.String(), "wrote ") != 4 {
		t.Fatalf("-dir wrote %v\n%s", files, listing.String())
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stdout.String(), "---- "+filepath.Base(f)+" ----\n"+string(data)+"\n") {
			t.Errorf("%s differs from its section on stdout", filepath.Base(f))
		}
	}
}

func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-table", "seq", "-model", "json"}, 0, ""}, // aliases, like every tool's parser
		{[]string{"-table", "hash"}, 2, `"hash"`},
		{[]string{"-config", "5bus"}, 2, `unknown config "5bus"`},
		{[]string{"-h"}, 0, "-model"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("tacogen %q: exit %d, stderr %q; want %d and %q", c.args, code, stderr.String(), c.code, c.stderr)
		}
	}
}

// Every marked output block of README.md and EXPERIMENTS.md that runs
// tacogen must be one contiguous run of what it prints.
func TestDocBlocks(t *testing.T) {
	for _, err := range cliutil.CheckDocBlocks(filepath.Join("..", ".."), "tacogen", run) {
		t.Error(err)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/cliutil"
	"taco/internal/rtable"
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
	if len(files) != 2 || strings.Count(listing.String(), "wrote ") != 2 {
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

// The files under testdata/gen/ pin what tacogen writes for the nine
// Table 1 instances: each table's directory holds the VHDL top levels of
// its three configurations, and taco_components.vhd is the one component
// library every instance writes. `make gen-goldens` rewrites them.
func TestModelsMatchGoldens(t *testing.T) {
	golden := filepath.Join("..", "..", "testdata", "gen")
	library, err := os.ReadFile(filepath.Join(golden, "taco_components.vhd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range rtable.PaperKinds {
		for _, config := range []string{"1bus1fu", "3bus1fu", "3bus3fu"} {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-config", config, "-table", kind.String(), "-dir", dir}, &stdout, &stderr); code != 0 {
				t.Fatalf("%s/%s: exit %d: %s", kind, config, code, stderr.String())
			}
			files, _ := filepath.Glob(filepath.Join(dir, "*"))
			if len(files) != 2 {
				t.Fatalf("%s/%s wrote %v", kind, config, files)
			}
			for _, f := range files {
				got, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				want, path := library, filepath.Join(golden, "taco_components.vhd")
				if filepath.Base(f) != "taco_components.vhd" {
					path = filepath.Join(golden, kind.String(), filepath.Base(f))
					if want, err = os.ReadFile(path); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s/%s: %s differs from %s", kind, config, filepath.Base(f), path)
				}
			}
		}
	}
}

func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-table", "seq", "-model", "vhdl"}, 0, ""}, // aliases, like every tool's parser
		{[]string{"-table", "hash"}, 2, `"hash"`},
		{[]string{"-config", "5bus"}, 2, `unknown config "5bus"`},
		{[]string{"-model", "vhd"}, 2, `unknown model "vhd" (want vhdl | library | all)`},
		{[]string{"-model", "json"}, 2, `unknown model "json" (want vhdl | library | all)`},
		{[]string{"-model", "matlab"}, 2, `unknown model "matlab" (want vhdl | library | all)`},
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

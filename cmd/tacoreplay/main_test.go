package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/cliutil"
)

// smokeBundles are a bare-machine and a router bundle of the committed
// corpus.
var smokeBundles = []string{
	"machine-stall-3bus1fu-5cb2e1fee18ed192.json",
	"stall-campaign-0-7574f14b6e90ff8c.json",
}

func corpus(name string) string { return filepath.Join("..", "..", "testdata", "forensics", name) }

// runTool runs tacoreplay in-process and returns its exit status,
// stdout and stderr.
func runTool(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// -step and -trace-out read the flight recorder cycle by cycle, and must
// print the same bytes whichever step path replays the bundle.
func TestStepIdenticalOnBothPaths(t *testing.T) {
	for _, name := range smokeBundles {
		dir := t.TempDir()
		out := map[string][2]string{}
		for _, path := range []string{"interpreted", "compiled"} {
			trace := filepath.Join(dir, path+".trace")
			code, stdout, stderr := runTool("-bundle", corpus(name), "-step", "-path", path, "-trace-out", trace)
			if code != 0 || !strings.Contains(stdout, "\nreplay: ") {
				t.Fatalf("%s on the %s path: exit %d\nstdout:\n%sstderr:\n%s", name, path, code, stdout, stderr)
			}
			out[path] = [2]string{stdout, loadTrace(t, trace)}
		}
		if out["interpreted"] != out["compiled"] {
			t.Errorf("%s: stdout or trace differ between the step paths", name)
		}
	}
}

// Every corpus bundle reproduces, and -diff finds both step paths in
// agreement.
func TestCorpusReproduces(t *testing.T) {
	bundles, _ := filepath.Glob(corpus("*.json"))
	for _, b := range bundles {
		for _, mode := range [][]string{nil, {"-diff"}} {
			args := append([]string{"-bundle", b}, mode...)
			if code, stdout, stderr := runTool(args...); code != 0 || !strings.Contains(stdout, "reproduction: OK") {
				t.Errorf("tacoreplay %q: exit %d\nstdout:\n%sstderr:\n%s", args, code, stdout, stderr)
			}
		}
	}
}

// A replay that does not reproduce its bundle exits 1 and still leaves
// a complete trace behind.
func TestFailedReplayKeepsTrace(t *testing.T) {
	data, err := os.ReadFile(corpus(smokeBundles[1]))
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]any
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	b["stall_cycle"] = b["stall_cycle"].(float64) + 1
	data, err = json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bundle, trace := filepath.Join(dir, "b.json"), filepath.Join(dir, "replay.trace")
	if err := os.WriteFile(bundle, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runTool("-bundle", bundle, "-trace-out", trace)
	if code != 1 || !strings.Contains(stderr, "NOT reproduced: stall cycle mismatch") {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	loadTrace(t, trace)
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "nothing to do: pass -bundle"},
		{[]string{"-bundle", corpus(smokeBundles[0]), "-path", "fast"}, 2, `unknown -path "fast"`},
		{[]string{"-h"}, 0, "-until-cycle"},
	} {
		if code, _, stderr := runTool(c.args...); code != c.code || !strings.Contains(stderr, c.stderr) {
			t.Errorf("tacoreplay %q: exit %d, stderr %q; want %d and %q", c.args, code, stderr, c.code, c.stderr)
		}
	}
}

// loadTrace returns the trace file at path after checking it is one
// complete JSON document.
func loadTrace(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("%s is not a loadable trace (%d events): %v", path, len(doc.TraceEvents), err)
	}
	return string(data)
}

// Every marked output block of README.md and EXPERIMENTS.md that runs
// tacoreplay must be one contiguous run of what it prints.
func TestDocBlocks(t *testing.T) {
	for _, err := range cliutil.CheckDocBlocks(filepath.Join("..", ".."), "tacoreplay", run) {
		t.Error(err)
	}
}

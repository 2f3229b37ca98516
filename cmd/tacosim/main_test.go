package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/cliutil"
)

// loop is a program whose guard fails, jumps and halts after a few
// dozen cycles.
var loop = filepath.Join("..", "..", "testdata", "trace", "loop.tasm")

// runTool runs tacosim in-process and returns its exit status, stdout
// and stderr.
func runTool(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// The per-cycle trace on stdout and the -trace-out file read the flight
// recorder, and must be the same bytes on either step path.
func TestTraceIdenticalOnBothPaths(t *testing.T) {
	dir := t.TempDir()
	out := map[string][2]string{}
	for _, path := range []string{"compiled", "interpreted"} {
		trace := filepath.Join(dir, path+".trace")
		args := []string{"-f", loop, "-trace", "-trace-out", trace}
		if path == "interpreted" {
			args = append(args, "-interp")
		}
		code, stdout, stderr := runTool(args...)
		if code != 0 || !strings.Contains(stdout, "halted after") {
			t.Fatalf("tacosim %q: exit %d\nstdout:\n%sstderr:\n%s", args, code, stdout, stderr)
		}
		out[path] = [2]string{stdout, loadTrace(t, trace)}
	}
	if out["compiled"] != out["interpreted"] {
		t.Errorf("stdout or trace differ between the step paths:\n--- compiled\n%s--- interpreted\n%s",
			out["compiled"][0], out["interpreted"][0])
	}
}

// A run that exceeds its budget still leaves every artifact it was
// asked for: both profiles, the stat events so far, a loadable trace
// and the metrics scrape.
func TestFailedRunKeepsArtifacts(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	code, _, stderr := runTool("-f", loop, "-max", "3", "-stat-every", "1",
		"-cpuprofile", at("cpu.prof"), "-memprofile", at("mem.prof"),
		"-trace-out", at("run.trace"), "-metrics-out", at("metrics.prom"))
	if code != 1 || !strings.Contains(stderr, "tacosim: tta: exceeded 3 cycles") {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	for _, p := range []string{"cpu.prof", "mem.prof"} {
		checkGzip(t, at(p))
	}
	loadTrace(t, at("run.trace"))
	if prom, err := os.ReadFile(at("metrics.prom")); err != nil || !bytes.Contains(prom, []byte("taco_cycles_total")) {
		t.Errorf("metrics scrape: %v\n%s", err, prom)
	}
	if n := strings.Count(stderr, `{"Event":"stat"`); n != 3 {
		t.Errorf("%d stat events on stderr, want 3:\n%s", n, stderr)
	}
}

// An unknown -read socket is the same usage error in text and -json
// mode, found before the program runs.
func TestReadUnknownSocket(t *testing.T) {
	for _, format := range [][]string{nil, {"-json"}} {
		args := append([]string{"-f", loop, "-read", "gpr.r1,x"}, format...)
		code, stdout, stderr := runTool(args...)
		if code != 2 || stdout != "" || stderr != "tacosim: -read: tta: unknown socket \"x\"\n" {
			t.Errorf("tacosim %q: exit %d\nstdout:\n%sstderr:\n%s", args, code, stdout, stderr)
		}
	}
	code, stdout, _ := runTool("-f", loop, "-read", "gpr.r1", "-json")
	var report struct{ Reads map[string]uint32 }
	if err := json.Unmarshal([]byte(stdout), &report); code != 0 || err != nil || len(report.Reads) != 1 {
		t.Errorf("-read gpr.r1 -json: exit %d, %v, reads %v", code, err, report.Reads)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "nothing to do"},
		{[]string{"-describe", "-config", "5bus"}, 2, `unknown config "5bus"`},
		{[]string{"-h"}, 0, "-stat-every"},
	} {
		if code, _, stderr := runTool(c.args...); code != c.code || !strings.Contains(stderr, c.stderr) {
			t.Errorf("tacosim %q: exit %d, stderr %q; want %d and %q", c.args, code, stderr, c.code, c.stderr)
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

// checkGzip fails t unless path holds a non-empty gzip stream, the
// container of both pprof profile kinds.
func checkGzip(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if body, err := io.ReadAll(zr); err != nil || len(body) == 0 {
		t.Fatalf("%s: %d bytes unpacked, %v", path, len(body), err)
	}
}

// Every marked output block of README.md and EXPERIMENTS.md that runs
// tacosim must be one contiguous run of what it prints.
func TestDocBlocks(t *testing.T) {
	for _, err := range cliutil.CheckDocBlocks(filepath.Join("..", ".."), "tacosim", run) {
		t.Error(err)
	}
}

package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/cliutil"
)

// runTool runs tacoroute in-process and returns its exit status, stdout
// and stderr.
func runTool(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func testdata(path ...string) string {
	return filepath.Join(append([]string{"..", "..", "testdata"}, path...)...)
}

// -soak prints exactly the committed soak report (`make soak` with the
// golden's config, table and seed).
func TestSoakMatchesGolden(t *testing.T) {
	code, stdout, stderr := runTool("-soak", "-soak-campaigns", "16", "-packets", "96", "-entries", "96",
		"-faults", "all:0.2", "-config", "3bus1fu", "-table", "tree", "-seed", "2003")
	want, err := os.ReadFile(testdata("soak", "3bus1fu-balanced-tree-seed2003.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || stdout != string(want) {
		t.Errorf("exit %d, stderr %q\n--- got\n%s--- want\n%s", code, stderr, stdout, want)
	}
}

// A soak that stalls under its tight watchdog exits 1 and still leaves
// both profiles behind, plus forensics bundles equal to the committed
// corpus.
func TestFailedSoakKeepsArtifacts(t *testing.T) {
	dir := t.TempDir()
	bundles := filepath.Join(dir, "bundles")
	code, stdout, stderr := runTool("-soak", "-soak-campaigns", "2", "-packets", "48", "-seed", "42",
		"-soak-max-cycles", "600", "-forensics-out", bundles,
		"-cpuprofile", filepath.Join(dir, "cpu.prof"), "-memprofile", filepath.Join(dir, "mem.prof"))
	if code != 1 || !strings.Contains(stderr, "tacoroute: soak diverged") {
		t.Fatalf("exit %d, want 1\nstdout:\n%sstderr:\n%s", code, stdout, stderr)
	}
	for _, p := range []string{"cpu.prof", "mem.prof"} {
		checkGzip(t, filepath.Join(dir, p))
	}
	got, _ := filepath.Glob(filepath.Join(bundles, "*.json"))
	if len(got) == 0 {
		t.Fatal("no forensics bundles written")
	}
	for _, path := range got {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := os.ReadFile(testdata("forensics", filepath.Base(path))); err != nil || !bytes.Equal(data, want) {
			t.Errorf("%s differs from the committed corpus (%v)", filepath.Base(path), err)
		}
	}
}

// -table takes aliases in any case, like every tool's parser.
func TestTableAlias(t *testing.T) {
	code, stdout, stderr := runTool("-table", "Tree", "-packets", "20")
	if code != 0 || !strings.Contains(stdout, "balanced-tree table") || !strings.Contains(stdout, "cross-check: OK") {
		t.Fatalf("exit %d\nstdout:\n%sstderr:\n%s", code, stdout, stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-ifaces", "0"}, 2, "tacoroute: -ifaces 0: want at least one network interface"},
		{[]string{"-ifaces", "-1", "-soak"}, 2, "-ifaces -1"},
		{[]string{"-table", "hash"}, 2, `"hash"`},
		{[]string{"-config", "5bus"}, 2, `unknown config "5bus"`},
		{[]string{"-faults", "nonesuch"}, 2, "nonesuch"},
		{[]string{"-h"}, 0, "-soak-campaigns"},
	} {
		if code, _, stderr := runTool(c.args...); code != c.code || !strings.Contains(stderr, c.stderr) {
			t.Errorf("tacoroute %q: exit %d, stderr %q; want %d and %q", c.args, code, stderr, c.code, c.stderr)
		}
	}
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
// tacoroute must be one contiguous run of what it prints.
func TestDocBlocks(t *testing.T) {
	for _, err := range cliutil.CheckDocBlocks(filepath.Join("..", ".."), "tacoroute", run) {
		t.Error(err)
	}
}

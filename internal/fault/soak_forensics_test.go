package fault

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"taco/internal/forensics"
	"taco/internal/fu"
	"taco/internal/rtable"
)

// soakStallOptions is a soak configuration known (by seed) to stall at
// least one campaign under its tight watchdog budget — the canonical
// way to mint router forensic bundles in tests.
func soakStallOptions(dir string) SoakOptions {
	return SoakOptions{
		Campaigns:    2,
		Packets:      48,
		Seed:         42,
		MaxCycles:    600,
		ForensicsDir: dir,
	}
}

// TestSoakStallBundlesMatchCorpus pins the soak's router reuse to the
// committed repro corpus: the CI forensics job's seeded failing soak
// (tacoroute -soak -soak-campaigns 2 -packets 48 -seed 42
// -soak-max-cycles 600, i.e. tacoroute's 100-entry 3BUS/1FU tree
// default) stalls both campaigns, and campaign 1 runs on the router
// rebound right after campaign 0 stalled. Both bundles must come out
// byte-identical to the ones captured when every campaign built its own
// router, and the mutations must be counted as if neither had stalled.
func TestSoakStallBundlesMatchCorpus(t *testing.T) {
	opts := SoakOptions{
		Campaigns: 2, Packets: 48, Entries: 100, Seed: 42,
		Config: fu.Config3Bus1FU(rtable.BalancedTree), ForensicsDir: t.TempDir(),
	}
	clean, err := RunSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.MaxCycles, opts.ForensicsDir = 600, t.TempDir()
	rep, err := RunSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	// A stalled campaign's traffic was mutated all the same.
	if !reflect.DeepEqual(rep.Mutations, clean.Mutations) {
		t.Errorf("stalled soak counts mutations %v, the same soak within budget %v", rep.Mutations, clean.Mutations)
	}
	want := []string{"stall-campaign-0-7574f14b6e90ff8c.json", "stall-campaign-1-3240880bf8820553.json"}
	if rep.Stalls != 2 || len(rep.Bundles) != len(want) {
		t.Fatalf("stalls %d, bundles %v; want 2 stalls and %v", rep.Stalls, rep.Bundles, want)
	}
	for i, path := range rep.Bundles {
		if filepath.Base(path) != want[i] {
			t.Errorf("bundle %d is %s, want %s", i, filepath.Base(path), want[i])
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corpus, err := os.ReadFile(filepath.Join("..", "..", "testdata", "forensics", want[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, corpus) {
			t.Errorf("%s differs from the committed corpus", want[i])
		}
	}
}

// TestSoakForensicsBundleRoundTrip: a stalling soak campaign with
// ForensicsDir set must emit a bundle, list it in the report, and the
// bundle must replay to the identical stall (cause, cycle, pc and
// recorder tail) on both step paths.
func TestSoakForensicsBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep, err := RunSoak(soakStallOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls == 0 {
		t.Fatal("soak scenario no longer stalls; pick a new seed/budget")
	}
	if len(rep.Bundles) == 0 {
		t.Fatal("stalling soak emitted no forensic bundles")
	}
	for _, path := range rep.Bundles {
		b, err := forensics.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if b.Kind != forensics.KindStall {
			t.Fatalf("%s: kind %q, want %q", path, b.Kind, forensics.KindStall)
		}
		for _, compiled := range []bool{false, true} {
			c := compiled
			res, err := forensics.Replay(b, forensics.ReplayOptions{Path: &c})
			if err != nil {
				t.Fatalf("%s (compiled=%v): %v", path, compiled, err)
			}
			if err := forensics.CheckReproduction(b, res); err != nil {
				t.Errorf("%s (compiled=%v): not reproduced: %v", path, compiled, err)
			}
		}
	}
}

// TestSoakForensicsDeterministic: two identical soak runs must produce
// identical bundle file sets — same content-hashed names, same bytes —
// so parallel or repeated captures converge on one corpus.
func TestSoakForensicsDeterministic(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var lists [2][]string
	for i, dir := range dirs {
		rep, err := RunSoak(soakStallOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Bundles {
			lists[i] = append(lists[i], filepath.Base(p))
		}
	}
	if len(lists[0]) == 0 {
		t.Fatal("no bundles emitted")
	}
	if len(lists[0]) != len(lists[1]) {
		t.Fatalf("bundle counts differ: %v vs %v", lists[0], lists[1])
	}
	for i := range lists[0] {
		if lists[0][i] != lists[1][i] {
			t.Fatalf("bundle names differ at %d: %s vs %s", i, lists[0][i], lists[1][i])
		}
		a, err := os.ReadFile(filepath.Join(dirs[0], lists[0][i]))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], lists[1][i]))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("bundle %s bytes differ between runs", lists[0][i])
		}
	}
}

// TestSoakWorkersIdentical: RunSoak hands campaigns to one worker per
// GOMAXPROCS, each with its own router, and merges in campaign order.
// The report, its bundle list and the bundle files must come out the
// same on one worker as on four, for a clean soak and a stalling one.
func TestSoakWorkersIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	stalling := soakStallOptions("")
	stalling.Campaigns = 8
	for name, opts := range map[string]SoakOptions{
		"clean": {Campaigns: 8, Packets: 48, Entries: 48, Seed: 2003, Compiled: true},
		"stall": stalling,
	} {
		var reports [2][]byte
		var files [2]map[string][sha256.Size]byte
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			opts.ForensicsDir = t.TempDir()
			rep, err := RunSoak(opts)
			if err != nil {
				t.Fatalf("%s, GOMAXPROCS %d: %v", name, procs, err)
			}
			// Bundle paths name the run's own directory; compare names.
			for j, p := range rep.Bundles {
				rep.Bundles[j] = filepath.Base(p)
			}
			if reports[i], err = json.Marshal(rep); err != nil {
				t.Fatal(err)
			}
			files[i] = map[string][sha256.Size]byte{}
			entries, err := os.ReadDir(opts.ForensicsDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(opts.ForensicsDir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				files[i][e.Name()] = sha256.Sum256(data)
			}
			if len(files[i]) != len(rep.Bundles) {
				t.Errorf("%s, GOMAXPROCS %d: %d files for bundles %v", name, procs, len(files[i]), rep.Bundles)
			}
		}
		if !bytes.Equal(reports[0], reports[1]) {
			t.Errorf("%s: report differs between 1 and 4 workers:\n%s\n%s", name, reports[0], reports[1])
		}
		if !reflect.DeepEqual(files[0], files[1]) {
			t.Errorf("%s: bundle files differ between 1 and 4 workers", name)
		}
		if name == "stall" && len(files[0]) < 2 {
			t.Errorf("stalling soak wrote %d bundles; the merge order goes untested", len(files[0]))
		}
	}
}

package forensics

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/fu"
	"taco/internal/obs"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// stallScenario provokes a deterministic watchdog stall (budget far too
// small for the workload) and returns the saved bundle's path.
func stallScenario(t *testing.T, dir string, compiled bool) string {
	t.Helper()
	const packets, ifaces, budget = 32, 4, 2_000
	kind := rtable.BalancedTree
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 64, Ifaces: ifaces, Seed: 7})
	tbl := rtable.New(kind)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		t.Fatal(err)
	}
	spec := workload.PaperTrafficSpec(packets)
	spec.Seed = 7
	pkts, err := workload.GenerateTraffic(routes, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fu.Config3Bus1FU(kind)
	tr, err := router.NewTACO(cfg, tbl, ifaces)
	if err != nil {
		t.Fatal(err)
	}
	tr.ArmRecorder(256)
	if compiled {
		if err := tr.UseCompiled(); err != nil {
			t.Fatal(err)
		}
	}
	dgs := router.RoundRobin(pkts, ifaces)
	run, runErr := tr.RunChecked(dgs, router.Outcomes{}, budget, nil)
	base := NewRouterBundle("", "test/stall", cfg, ifaces, routes, dgs, run.Delivered, budget, compiled)
	base.RecorderCap = 256
	bs := base.Failures(tr, run, runErr)
	if len(bs) != 1 || bs[0].Kind != KindStall {
		t.Fatalf("expected one stall bundle, got %d for %v", len(bs), runErr)
	}
	b := bs[0]
	path, err := b.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStallBundleRoundTrip: serialize → load → replay must reproduce
// the identical stall — same cause, same cycle, same pc, and the same
// flight-recorder tail — on both step paths, regardless of which path
// captured the bundle.
func TestStallBundleRoundTrip(t *testing.T) {
	for _, captureCompiled := range []bool{false, true} {
		name := "captured-interpreted"
		if captureCompiled {
			name = "captured-compiled"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := stallScenario(t, dir, captureCompiled)
			b, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if b.Kind != KindStall || b.StallCause == "" || len(b.Tail) == 0 {
				t.Fatalf("bundle missing evidence: kind %q cause %q tail %d", b.Kind, b.StallCause, len(b.Tail))
			}
			for _, replayCompiled := range []bool{false, true} {
				c := replayCompiled
				res, err := Replay(b, ReplayOptions{Path: &c})
				if err != nil {
					t.Fatalf("replay (compiled=%v): %v", c, err)
				}
				if res.Stall == nil {
					t.Fatalf("replay (compiled=%v) did not stall: err=%q", c, res.Err)
				}
				if got, want := res.Stall.Cause.String(), b.StallCause; got != want {
					t.Errorf("replay (compiled=%v) cause %q, bundle %q", c, got, want)
				}
				if res.Stall.Cycles != b.StallCycle {
					t.Errorf("replay (compiled=%v) stalled at cycle %d, bundle %d", c, res.Stall.Cycles, b.StallCycle)
				}
				if res.Stall.PC != b.PC {
					t.Errorf("replay (compiled=%v) pc %d, bundle %d", c, res.Stall.PC, b.PC)
				}
				if err := CheckReproduction(b, res); err != nil {
					t.Errorf("replay (compiled=%v): %v", c, err)
				}
				if len(res.Tail) != len(b.Tail) {
					t.Fatalf("replay (compiled=%v) tail %d events, bundle %d", c, len(res.Tail), len(b.Tail))
				}
				for i := range res.Tail {
					if res.Tail[i] != b.Tail[i] {
						t.Fatalf("replay (compiled=%v) tail event %d diverged:\n  replay: %s\n  bundle: %s",
							c, i, res.Tail[i].Format(res.SocketNames), b.Tail[i].Format(b.SocketNames))
					}
				}
			}
		})
	}
}

// TestBundleSaveDeterministic: identical bundles must serialize to the
// identical file name and bytes — the property that makes parallel
// sweep workers' forensics directories byte-comparable.
func TestBundleSaveDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	pathA := stallScenario(t, dirA, false)
	pathB := stallScenario(t, dirB, false)
	if filepath.Base(pathA) != filepath.Base(pathB) {
		t.Fatalf("file names differ: %s vs %s", filepath.Base(pathA), filepath.Base(pathB))
	}
	a, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("bundle bytes differ across identical captures")
	}
}

// TestCaptureWrapsCause: Capture saves the bundle where Save would and
// wraps the cause with its path; a failed save keeps the cause
// matchable and names the save error instead of a path.
func TestCaptureWrapsCause(t *testing.T) {
	dir := t.TempDir()
	b := &Bundle{Version: Version, Kind: KindMachineStall, Label: "capture"}
	cause := errors.New("tta: exceeded 10 cycles (pc=3)")
	err := b.Capture(dir, cause)
	want, serr := b.Save(dir)
	if serr != nil {
		t.Fatal(serr)
	}
	if !errors.Is(err, cause) || BundlePath(err) != want {
		t.Fatalf("Capture = %v, want %v wrapped with bundle %s", err, cause, want)
	}
	if got := err.Error(); got != cause.Error()+" [bundle "+want+"]" {
		t.Errorf("Capture text = %q", got)
	}
	notDir := filepath.Join(dir, filepath.Base(want)) // a file, not a directory
	err = b.Capture(notDir, cause)
	if !errors.Is(err, cause) || BundlePath(err) != "" ||
		!strings.HasPrefix(err.Error(), cause.Error()+" (forensics capture failed: forensics: ") {
		t.Errorf("Capture into a file = %v, want the cause plus the save failure", err)
	}
}

// TestReplayStepEvents: stepping a bundle cycle by cycle must visit
// monotonically increasing cycles whose recorded events match the
// stamped cycle numbers and end in the bundle's own failure — the
// stepped run reproduces the stall as faithfully as the batch one, on
// either step path — and -until-cycle must pause early.
func TestReplayStepEvents(t *testing.T) {
	dir := t.TempDir()
	b, err := Load(stallScenario(t, dir, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, compiled := range []bool{false, true} {
		compiled := compiled
		res, err := ReplayStep(b, ReplayOptions{Path: &compiled}, -1, func(int64, []obs.RecEvent) {})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stall == nil {
			t.Fatalf("stepped replay (compiled=%t) did not stall: %q", compiled, res.Err)
		}
		if err := CheckReproduction(b, res); err != nil {
			t.Errorf("stepped replay (compiled=%t): %v", compiled, err)
		}
	}
	var last int64 = -1
	var total int
	res, err := ReplayStep(b, ReplayOptions{}, -1, func(cycle int64, evs []obs.RecEvent) {
		if cycle <= last {
			t.Fatalf("cycle %d visited after %d", cycle, last)
		}
		last = cycle
		total += len(evs)
		for _, e := range evs {
			if e.Cycle != cycle {
				t.Fatalf("event stamped cycle %d surfaced during cycle %d", e.Cycle, cycle)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("stepping surfaced no events")
	}
	if res.Err == "" {
		t.Fatal("stepped replay of a stall bundle reported no budget exhaustion")
	}

	// -until-cycle pauses mid-run with state intact.
	const until = 500
	res, err = ReplayStep(b, ReplayOptions{}, until, func(int64, []obs.RecEvent) {})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= until || res.Cycles > until+2 {
		t.Fatalf("pause landed at cycle %d, wanted just past %d", res.Cycles, until)
	}
	if len(res.Sockets) == 0 {
		t.Fatal("paused replay carries no socket snapshot")
	}
}

// TestLoadRejectsBadVersion: future-versioned or kindless bundles are
// rejected with a clear error.
func TestLoadRejectsBadVersion(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 99, "kind": "stall"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("expected version rejection")
	}
	if err := os.WriteFile(bad, []byte(`{"version": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("expected kindless rejection")
	}
}

// TestLoadRejectsBadInterfaces: a router bundle with no interfaces, with
// a datagram delivered on a card it does not have, or with datagrams out
// of Seq order, is rejected by Load with an error naming the field — not
// handed to the replay to index a line card out of range.
func TestLoadRejectsBadInterfaces(t *testing.T) {
	corpus := filepath.Join("..", "..", "testdata", "forensics", "stall-campaign-0-7574f14b6e90ff8c.json")
	for _, tc := range []struct {
		name, field string
		edit        func(b *Bundle)
	}{
		{"datagram iface 9", "datagrams[3].iface 9", func(b *Bundle) { b.Datagrams[3].Iface = 9 }},
		{"datagram iface -1", "datagrams[0].iface -1", func(b *Bundle) { b.Datagrams[0].Iface = -1 }},
		{"ifaces 0", "ifaces 0", func(b *Bundle) { b.Ifaces = 0 }},
		{"seq out of order", "datagrams[5].seq 2", func(b *Bundle) { b.Datagrams[5].Seq = 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Load(corpus)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(b)
			path, err := b.Save(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("Load = %v, want an error naming %q", err, tc.field)
			}
		})
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"stall-test/stall":       "stall-test-stall",
		"Fate Divergence (C#3)!": "fate-divergence-c-3",
		"---":                    "",
	} {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

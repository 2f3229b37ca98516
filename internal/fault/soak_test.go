package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"taco/internal/fu"
	"taco/internal/rtable"
)

// TestSoakDifferentialAcceptance is the tentpole's acceptance
// criterion: across three independent seeds (and all three table
// implementations), golden and TACO must produce identical
// forwarded-packet sets and identical per-card per-DropReason counts on
// fault-injected traffic, with zero stalls and zero unexplained drops —
// while the fault layer actually provoked a healthy mix of drops.
func TestSoakDifferentialAcceptance(t *testing.T) {
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, seed := range []uint64{1, 2003, 0xfeedface} {
			rep, err := RunSoak(SoakOptions{
				Campaigns: 2,
				Packets:   48,
				Entries:   48,
				Seed:      seed,
				Config:    fu.Config3Bus1FU(kind),
			})
			if err != nil {
				t.Fatalf("%v seed %d: %v", kind, seed, err)
			}
			if !rep.Clean() {
				t.Errorf("%v seed %d: not clean: stalls %d, mismatches %d, unexplained %d",
					kind, seed, rep.Stalls, rep.Mismatches, rep.Unexplained)
			}
			if rep.Drops.Total() == 0 {
				t.Errorf("%v seed %d: fault layer provoked no drops", kind, seed)
			}
			fired := 0
			for _, n := range rep.Mutations {
				if n > 0 {
					fired++
				}
			}
			if fired < 4 {
				t.Errorf("%v seed %d: only %d mutators fired: %v", kind, seed, fired, rep.Mutations)
			}
			if rep.Forwarded == 0 {
				t.Errorf("%v seed %d: nothing survived — injection too destructive to be a useful soak", kind, seed)
			}
		}
	}
}

// TestSoakDeterministic: the same options must reproduce the same
// report, byte for byte — campaigns are replayable.
func TestSoakDeterministic(t *testing.T) {
	opts := SoakOptions{Campaigns: 2, Packets: 32, Entries: 32, Seed: 77}
	a, err := RunSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("same-seed soaks diverged:\n%s\n%s", ja, jb)
	}
}

// The reports under testdata/soak were written on the commit before
// RunSoak began building one router per call and rebinding it to each
// campaign's table. Every byte of the JSON encoding and of String() must
// still come out the same, on both step paths: one stale lowered table
// in the reused router would show as a fate or drop-count mismatch.
func TestSoakReportsMatchGoldens(t *testing.T) {
	for _, g := range []struct {
		name string
		cfg  fu.Config
	}{
		{"1bus1fu-sequential", fu.Config1Bus1FU(rtable.Sequential)},
		{"3bus1fu-balanced-tree", fu.Config3Bus1FU(rtable.BalancedTree)},
		{"3bus3fu-cam", fu.Config3Bus3FU(rtable.CAM)},
	} {
		for _, seed := range []uint64{2003, 7} {
			base := filepath.Join("..", "..", "testdata", "soak", fmt.Sprintf("%s-seed%d", g.name, seed))
			for _, compiled := range []bool{false, true} {
				rep, err := RunSoak(SoakOptions{
					Campaigns: 16, Packets: 96, Entries: 96, Spec: "all:0.2",
					Seed: seed, Config: g.cfg, Compiled: compiled,
				})
				if err != nil {
					t.Fatal(err)
				}
				js, err := json.MarshalIndent(rep, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				for ext, got := range map[string][]byte{
					".json": append(js, '\n'), ".txt": []byte(rep.String() + "\n"),
				} {
					want, err := os.ReadFile(base + ext)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s (compiled=%v) differs from the golden:\n--- got\n%s--- want\n%s",
							filepath.Base(base)+ext, compiled, got, want)
					}
				}
			}
		}
	}
}

func TestSoakReportString(t *testing.T) {
	rep, err := RunSoak(SoakOptions{Campaigns: 1, Packets: 24, Entries: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"soak:", "forwarded", "mutations:", "stalls"} {
		if !contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if rep.Clean() && !contains(s, "clean") {
		t.Errorf("clean report not marked clean:\n%s", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// FuzzSoakDifferential lets the fuzzer pick the seed and fault mix: any
// combination must keep golden and TACO in agreement. One campaign per
// input keeps individual executions fast.
func FuzzSoakDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(100))
	f.Add(uint64(2003), uint8(1), uint8(20))
	f.Add(uint64(0xdead), uint8(2), uint8(255))
	kinds := []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM}
	f.Fuzz(func(t *testing.T, seed uint64, sel uint8, probByte uint8) {
		spec := "all"
		if probByte > 0 {
			// Scale the byte into (0, 1]; fmt-free to keep the hot loop lean.
			prob := float64(probByte) / 255
			spec = "all:" + trimFloat(prob)
		}
		rep, err := RunSoak(SoakOptions{
			Campaigns: 1,
			Packets:   24,
			Entries:   24,
			Seed:      seed,
			Spec:      spec,
			Config:    fu.Config3Bus1FU(kinds[int(sel)%len(kinds)]),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("seed %d spec %q: stalls %d, mismatches %d, unexplained %d",
				seed, spec, rep.Stalls, rep.Mismatches, rep.Unexplained)
		}
	})
}

func trimFloat(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

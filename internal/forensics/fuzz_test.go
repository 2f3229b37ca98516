package forensics

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadBundle: Load must never panic, whatever the file holds, and
// every router bundle it accepts must replay — and be checked — without
// panicking. The replay's time is bounded by capping the bundle's cycle
// budget and its memory by skipping machines and tables far larger than
// any capture writes.
func FuzzLoadBundle(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "forensics", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed bundles: %v", err)
	}
	for _, s := range seeds {
		data, err := os.ReadFile(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "bundle.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := Load(path)
		if err != nil || b.Kind == KindMachineStall || !withinFuzzCaps(b) {
			return
		}
		b.Budget = min(b.Budget, 20_000)
		res, err := Replay(b, ReplayOptions{RecorderCap: 256})
		if err != nil {
			return
		}
		_ = CheckReproduction(b, res)
	})
}

// withinFuzzCaps bounds what a fuzzed bundle may ask the replay to
// allocate: interfaces, routes, datagrams, functional units and data
// memory, each far above what any capture records.
func withinFuzzCaps(b *Bundle) bool {
	if b.Ifaces > 64 || len(b.Routes) > 4096 || len(b.Datagrams) > 4096 {
		return false
	}
	c := b.Config
	return c == nil || (c.MemWords <= 1<<20 && c.GPRs <= 64 && c.Buses <= 16 &&
		max(c.Counters, c.Comparators, c.Matchers, c.Maskers, c.Shifters, c.Checksums) <= 16)
}

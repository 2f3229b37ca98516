package net

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The campaign reports under testdata/topo were written by
// `tacotopo -campaign -mix mixed` (its default flap, partition, crash
// and storm counts) on the commit before the RIPng engine's route store
// and wire codec were rebuilt for speed. Every byte of the text, CSV and
// JSON report must still come out the same, at any worker count.
// cmd/tacotopo's TestCampaignReportsMatchGoldens checks the same files
// through the tool.
func TestCampaignReportsMatchGoldens(t *testing.T) {
	for _, g := range []struct {
		kind string
		size int
		seed uint64
	}{
		{"fattree", 6, 3},
		{"scalefree", 40, 7},
		{"ring", 12, 3},
	} {
		base := filepath.Join("..", "..", "testdata", "topo", fmt.Sprintf("%s-%d-seed%d", g.kind, g.size, g.seed))
		for _, workers := range []int{1, 8} {
			m := mustMesh(t, g.kind, g.size, Options{Seed: g.seed, Mix: "mixed", Workers: workers})
			rep := RunCampaign(m, CampaignOptions{Flaps: 4, Partition: true, Crashes: 1, Storms: 1})
			for ext, write := range map[string]func(io.Writer) error{
				".txt": rep.WriteText, ".csv": rep.WriteCSV, ".json": rep.WriteJSON,
			} {
				want, err := os.ReadFile(base + ext)
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := write(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s at workers=%d differs from the golden:\n--- got\n%s--- want\n%s",
						filepath.Base(base)+ext, workers, got.Bytes(), want)
				}
			}
		}
	}
}

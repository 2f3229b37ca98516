package rtable

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"taco/internal/bits"
)

// TestKindListsPinned holds Kinds and PaperKinds to their contents and
// order: Table 1's columns first, then the extension backends.
func TestKindListsPinned(t *testing.T) {
	if want := []Kind{Sequential, BalancedTree, CAM, Trie, Multibit, TiledTCAM, Compressed}; !slices.Equal(Kinds, want) {
		t.Errorf("Kinds = %v, want %v", Kinds, want)
	}
	if want := []Kind{Sequential, BalancedTree, CAM}; !slices.Equal(PaperKinds, want) {
		t.Errorf("PaperKinds = %v, want %v", PaperKinds, want)
	}
}

// TestBackendsConformance: entry i registers Kind(i), every name is
// unique and lower-case, New builds the entry's kind, and exactly the
// backends that are neither paper nor analytic carry a step factor.
func TestBackendsConformance(t *testing.T) {
	seen := map[string]Kind{}
	for i, b := range Backends {
		if b.Kind != Kind(i) {
			t.Errorf("Backends[%d].Kind = %v", i, b.Kind)
		}
		for _, name := range append([]string{b.Name}, b.Aliases...) {
			if name != strings.ToLower(name) || name == "" {
				t.Errorf("%v: name %q is not lower-case", b.Kind, name)
			}
			if k, dup := seen[name]; dup {
				t.Errorf("name %q registered by %v and %v", name, k, b.Kind)
			}
			seen[name] = b.Kind
		}
		if got := b.New().Kind(); got != b.Kind {
			t.Errorf("Backends[%d].New().Kind() = %v", i, got)
		}
		analytic := b.AnalyticProbes != nil
		if analytic != (b.AnalyticRegions != nil) {
			t.Errorf("%v: AnalyticProbes and AnalyticRegions must be set together", b.Kind)
		}
		if modelled := b.StepFactor != 0; modelled != (!b.Paper && !analytic) {
			t.Errorf("%v: step factor %g, paper %v, analytic %v", b.Kind, b.StepFactor, b.Paper, analytic)
		}
		if b.Label == "" {
			t.Errorf("%v: no Table 1 label", b.Kind)
		}
	}
}

// TestAnalyticRegionsMatchTables: a built analytic table reports the
// regions its backend derives from the entry count, so pricing it built
// or unbuilt gives the same answer.
func TestAnalyticRegionsMatchTables(t *testing.T) {
	for _, b := range Backends {
		if b.AnalyticRegions == nil {
			continue
		}
		tbl := b.New()
		for i := 0; i < 5; i++ {
			p := bits.MakePrefix(bits.Word128{Hi: 0x2001 << 48, Lo: uint64(i)}, 128)
			if err := tbl.Insert(Route{Prefix: p, Metric: 1}); err != nil {
				t.Fatal(err)
			}
		}
		got := tbl.MemDims()
		if want := b.Kind.Regions(MemDims{Entries: 5}); !reflect.DeepEqual(got.Regions, want) {
			t.Errorf("%v: built table regions %+v, analytic %+v", b.Kind, got.Regions, want)
		}
	}
}

// TestParseKind: every canonical name and alias, in any case, parses to
// its kind; an unknown name is rejected with the sorted canonical list.
func TestParseKind(t *testing.T) {
	for _, b := range Backends {
		for _, name := range append([]string{b.Name}, b.Aliases...) {
			for _, in := range []string{name, strings.ToUpper(name)} {
				if got, err := ParseKind(in); err != nil || got != b.Kind {
					t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, b.Kind)
				}
			}
		}
	}
	for in, want := range map[string]Kind{"seq": Sequential, "Tree": BalancedTree, "TCAM": TiledTCAM, "cram": Compressed, "LCTrie": Multibit} {
		if got, err := ParseKind(in); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	_, err := ParseKind("hash")
	if want := strings.Join(KindNames(), " | "); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ParseKind(hash) error %v, want the sorted list %q", err, want)
	}
}

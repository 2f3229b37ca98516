package fault

import (
	"sort"
	"strings"
	"testing"
)

// ParseSpec must reject a spec naming the same mutator twice — directly,
// or indirectly through the "all" expansion — instead of silently
// double-applying it, and unknown-name errors must list every valid
// mutator name in sorted order so the message is stable and scannable.

func TestParseSpecRejectsDuplicates(t *testing.T) {
	cases := []struct {
		name string
		spec string
		dup  string // mutator name the error must identify
	}{
		{"direct", "truncate,truncate", "truncate"},
		{"direct-with-probs", "bitflip:0.1,bitflip:0.9", "bitflip"},
		{"spread-out", "truncate,hoplimit,truncate:0.3", "truncate"},
		{"all-then-name", "all,oversize", "oversize"}, // "all" already claimed every name
		{"name-then-all", "oversize,all", "oversize"},
		{"all-twice", "all,all", "truncate"},
		{"whitespace", " truncate , truncate ", "truncate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := ParseSpec(tc.spec, 1)
			if err == nil {
				t.Fatalf("ParseSpec(%q) accepted a duplicate (injector %v)", tc.spec, in)
			}
			if !strings.Contains(err.Error(), "duplicate") {
				t.Fatalf("error does not say duplicate: %v", err)
			}
			if !strings.Contains(err.Error(), tc.dup) {
				t.Fatalf("error does not name the duplicated mutator %q: %v", tc.dup, err)
			}
		})
	}
}

func TestParseSpecAcceptsDistinctNames(t *testing.T) {
	cases := []struct {
		spec  string
		rules int
	}{
		{"truncate,hoplimit,bitflip", 3},
		{"all", len(AllMutators())},
		{"truncate:0.5", 1},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			in, err := ParseSpec(tc.spec, 1)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
			}
			if got := len(in.rules); got != tc.rules {
				t.Fatalf("ParseSpec(%q): %d rules, want %d", tc.spec, got, tc.rules)
			}
		})
	}
}

func TestUnknownMutatorErrorListsNamesSorted(t *testing.T) {
	var want []string
	for _, m := range AllMutators() {
		want = append(want, m.Name())
	}
	sort.Strings(want)

	for _, spec := range []string{"nope", "truncate,nope:0.5"} {
		_, err := ParseSpec(spec, 1)
		if err == nil {
			t.Fatalf("ParseSpec(%q) accepted an unknown mutator", spec)
		}
		msg := err.Error()
		if !strings.Contains(msg, `"nope"`) {
			t.Fatalf("error does not quote the unknown name: %v", err)
		}
		if !strings.Contains(msg, strings.Join(want, " | ")) {
			t.Fatalf("error does not list the valid names sorted:\n  error: %v\n  want:  %s",
				err, strings.Join(want, " | "))
		}
	}
}

// FuzzParseSpec: ParseSpec never panics, and every rule of a spec it
// accepts fires with a probability in [0, 1] — NaN included among the
// rejected. Seeded with TestParseSpec's specs.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range append([]string{"", "truncate:0.1, hoplimit", "all:0.05"}, parseSpecBad...) {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := ParseSpec(spec, 1)
		if err != nil || in == nil {
			return
		}
		for _, r := range in.rules {
			if !(r.Prob >= 0 && r.Prob <= 1) {
				t.Fatalf("ParseSpec(%q) accepted %s with probability %v", spec, r.Mutator.Name(), r.Prob)
			}
		}
	})
}

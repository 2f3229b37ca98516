// Test-selection guard: CI jobs and make targets pick tests by name
// (`go test -run 'A|B' pkg`, `-fuzz F`). A pattern that names no test
// selects nothing and passes silently, so a renamed or deleted test
// would quietly drop out of its gate. This test requires every pattern
// alternative to match at least one test in the packages it is run on.
package taco_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// testInvocation is one `go test` command line: the packages it names
// and its -run and -fuzz patterns.
type testInvocation struct {
	where     string
	pkgs      []string
	run, fuzz string
}

// shellFields splits a command line into words, honouring single and
// double quotes (the only quoting the workflow and Makefile use).
func shellFields(line string) []string {
	var out []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}

// testInvocations extracts every `go test` command from file, skipping
// comments.
func testInvocations(t *testing.T, file string) []testInvocation {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []testInvocation
	for n, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		words := shellFields(line)
		for i := 0; i+1 < len(words); i++ {
			if (words[i] != "go" && words[i] != "$(GO)") || words[i+1] != "test" {
				continue
			}
			inv := testInvocation{where: file + ":" + strconv.Itoa(n+1)}
			args := words[i+2:]
			for k := 0; k < len(args); k++ {
				switch a := args[k]; {
				case a == "-run" && k+1 < len(args):
					inv.run = args[k+1]
					k++
				case a == "-fuzz" && k+1 < len(args):
					inv.fuzz = args[k+1]
					k++
				case a == "." || strings.HasPrefix(a, "./"):
					inv.pkgs = append(inv.pkgs, a)
				}
			}
			if len(inv.pkgs) == 0 {
				inv.pkgs = []string{"."}
			}
			out = append(out, inv)
		}
	}
	return out
}

// alternatives splits the top level of a -run/-fuzz pattern: the part
// before the first '/' (subtest levels are not checked), then its
// '|'-separated alternatives outside parentheses.
func alternatives(pattern string) []string {
	if i := strings.IndexByte(pattern, '/'); i >= 0 {
		pattern = pattern[:i]
	}
	var out []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}

// testFuncs maps each package directory (relative, "." for the root) to
// the Test, Fuzz and Example functions its test files declare, build
// tags ignored: a tagged test is still selected by name when its tag is
// on.
func testFuncs(t *testing.T) map[string][]string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	funcs := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			funcs[dir] = append(funcs[dir], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// inPackages lists the test functions of the directories pkgs names.
func inPackages(funcs map[string][]string, pkgs []string) []string {
	var out []string
	for _, p := range pkgs {
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			root := filepath.Clean(strings.TrimSuffix(rest, "/"))
			for dir, names := range funcs {
				if root == "." || dir == root || strings.HasPrefix(dir, root+string(filepath.Separator)) {
					out = append(out, names...)
				}
			}
			continue
		}
		out = append(out, funcs[filepath.Clean(p)]...)
	}
	return out
}

// TestCIPatternsSelectTests: every -run and -fuzz alternative in the CI
// workflow and the Makefile matches at least one test in the packages
// its command runs, except the deliberate `-run xxx` that turns the
// plain tests off beside -fuzz and -bench.
func TestCIPatternsSelectTests(t *testing.T) {
	funcs := testFuncs(t)
	var invs []testInvocation
	for _, f := range []string{".github/workflows/ci.yml", "Makefile"} {
		invs = append(invs, testInvocations(t, f)...)
	}
	checked := 0
	for _, inv := range invs {
		names := inPackages(funcs, inv.pkgs)
		check := func(flag, pattern, prefix string) {
			for _, alt := range alternatives(pattern) {
				if flag == "-run" && alt == "xxx" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: %s %q: %v", inv.where, flag, alt, err)
					continue
				}
				found := false
				for _, n := range names {
					if strings.HasPrefix(n, prefix) && re.MatchString(n) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: %s alternative %q matches no %s* function in %v", inv.where, flag, alt, prefix, inv.pkgs)
				}
				checked++
			}
		}
		if inv.run != "" {
			check("-run", inv.run, "")
		}
		if inv.fuzz != "" {
			check("-fuzz", inv.fuzz, "Fuzz")
		}
	}
	if checked < 30 {
		t.Fatalf("checked %d pattern alternatives in %d go test commands; the parser lost some", checked, len(invs))
	}
}

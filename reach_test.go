// Link reachability: every function declared outside _test.go files
// must be linked into one of the six tools or ./bench, or be listed in
// testdata/reach.txt with the reason it stays. Product code that only
// tests reach is either deleted or named there, so the list cannot grow
// unnoticed. The binaries are built with inlining off, so a function
// that is called is a symbol of its own; `go tool nm` lists what the
// linker kept.
package taco_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachList is the allow-list: one "symbol  reason" line per function
// that no binary links, blank lines and #-comments aside.
const reachList = "testdata/reach.txt"

// reachTODO starts the reason of a printed missing line; an entry that
// still carries it has no reason yet.
const reachTODO = "TODO"

// productFunc is one function declared outside _test.go: its symbol as
// `go tool nm` prints it, with a main package named by its import path
// and a generic's type arguments written as [...].
type productFunc struct {
	symbol string
	pos    string // file:line
	lines  int
	// A linked symbol is this function if it equals prefix (exact), or
	// else starts with prefix and ends with suffix.
	prefix, suffix string
	exact          bool
}

// linkedIn reports whether one of syms, sorted, is f.
func (f productFunc) linkedIn(syms []string) bool {
	for i := sort.SearchStrings(syms, f.prefix); i < len(syms) && strings.HasPrefix(syms[i], f.prefix); i++ {
		if f.exact && syms[i] == f.prefix || !f.exact && strings.HasSuffix(syms[i], f.suffix) {
			return true
		}
	}
	return false
}

func TestNoUnlinkedProductCode(t *testing.T) {
	module := modulePath(t)
	linked := linkedSymbols(t, module)
	funcs := productFuncs(t, module)

	var unlinked []productFunc
	total := 0
	for _, f := range funcs {
		if !f.linkedIn(linked) {
			unlinked = append(unlinked, f)
			total += f.lines
		}
	}
	t.Logf("%d of %d product functions (%d lines) are linked into no binary:", len(unlinked), len(funcs), total)
	for _, f := range unlinked {
		t.Logf("  %s  (%s, %d lines)", f.symbol, f.pos, f.lines)
	}

	allowed := readReachList(t)
	var missing []string
	for _, f := range unlinked {
		reason, ok := allowed[f.symbol]
		switch {
		case !ok:
			missing = append(missing, fmt.Sprintf("%s  %s: delete it, or say why it stays (%s)", f.symbol, reachTODO, f.pos))
		case reason == "" || strings.HasPrefix(reason, reachTODO):
			t.Errorf("%s: %s has no reason", reachList, f.symbol)
		}
		delete(allowed, f.symbol)
	}
	if len(missing) > 0 {
		t.Errorf("%d functions are linked into no binary and not in %s; delete them, or add these lines with a reason:\n%s",
			len(missing), reachList, strings.Join(missing, "\n"))
	}
	var stale []string
	for sym := range allowed {
		stale = append(stale, sym)
	}
	sort.Strings(stale)
	for _, sym := range stale {
		t.Errorf("%s: stale entry %s: no such function, or a binary links it now", reachList, sym)
	}
}

// modulePath reads the module line of go.mod.
func modulePath(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m)
		}
	}
	t.Fatal("go.mod has no module line")
	return ""
}

// nmText matches a text symbol of `go tool nm` output: address, T or t,
// name (which may hold spaces inside a generic's shape).
var nmText = regexp.MustCompile(`^\s*[0-9a-f]+ [Tt] (.+)$`)

// linkedSymbols builds every tool and ./bench with inlining off and
// returns their text symbols; a binary's "main." is renamed to its
// package's import path.
func linkedSymbols(t *testing.T, module string) []string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	build := exec.Command(goTool, "build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./cmd/...", "./bench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var syms []string
	for _, bin := range bins {
		pkg := module + "/cmd/" + bin.Name()
		if bin.Name() == "bench" {
			pkg = module + "/bench"
		}
		out, err := exec.Command(goTool, "tool", "nm", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin.Name(), err)
		}
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			m := nmText.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			sym := m[1]
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = pkg + "." + rest
			}
			syms = append(syms, sym)
		}
	}
	if len(syms) == 0 {
		t.Fatal("no text symbols in the built binaries")
	}
	sort.Strings(syms)
	return slices.Compact(syms)
}

// productFuncs parses every non-test .go file outside bench/ and any
// testdata/ and returns its functions in file order.
func productFuncs(t *testing.T, module string) []productFunc {
	t.Helper()
	var funcs []productFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if d := filepath.ToSlash(filepath.Dir(path)); d != "." {
			pkg += "/" + d
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			f := funcSymbol(pkg, fn)
			f.pos = fmt.Sprintf("%s:%d", filepath.ToSlash(path), start.Line)
			f.lines = end.Line - start.Line + 1
			funcs = append(funcs, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// funcSymbol names fn as the linker does: pkg.F, pkg.T.M or pkg.(*T).M.
// A generic function or a method of a generic type matches any
// instantiation, pkg.F[...] or pkg.(*T[...]).M; init matches the
// numbered pkg.init.N the compiler emits.
func funcSymbol(pkg string, fn *ast.FuncDecl) productFunc {
	name := fn.Name.Name
	if fn.Recv == nil {
		switch {
		case name == "init":
			return productFunc{symbol: pkg + ".init", prefix: pkg + ".init."}
		case fn.Type.TypeParams != nil:
			prefix := pkg + "." + name + "["
			return productFunc{symbol: prefix + "...]", prefix: prefix}
		}
		sym := pkg + "." + name
		return productFunc{symbol: sym, prefix: sym, exact: true}
	}
	typ := fn.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	generic := false
	switch x := typ.(type) {
	case *ast.IndexExpr:
		generic, typ = true, x.X
	case *ast.IndexListExpr:
		generic, typ = true, x.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv
	}
	if !generic {
		if ptr {
			recv += ")"
		}
		sym := pkg + "." + recv + "." + name
		return productFunc{symbol: sym, prefix: sym, exact: true}
	}
	prefix, suffix := pkg+"."+recv+"[", "]."+name
	if ptr {
		suffix = "])." + name
	}
	return productFunc{symbol: prefix + "..." + suffix, prefix: prefix, suffix: suffix}
}

// readReachList returns the allow-list's symbols and reasons.
func readReachList(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(reachList)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]string{}
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, "  ")
		if _, dup := allowed[sym]; dup {
			t.Errorf("%s:%d: %s listed twice", reachList, n+1, sym)
		}
		allowed[sym] = strings.TrimSpace(reason)
	}
	return allowed
}

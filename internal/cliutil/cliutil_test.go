package cliutil

import (
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"taco/internal/rtable"
)

func TestKindsByNames(t *testing.T) {
	got, err := KindsByNames(" seq,,TREE, cam ,tcam,")
	want := []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM, rtable.TiledTCAM}
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("KindsByNames = %v, %v; want %v", got, err, want)
	}
	if _, err := KindsByNames("tree,hash"); err == nil || !strings.Contains(err.Error(), `"hash"`) {
		t.Fatalf("unknown kind in a list: err = %v", err)
	}
}

func TestParseSizes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
		bad  string // token the error must name; "" when parsing succeeds
	}{
		{"2000,10000", []int{2000, 10000}, ""},
		{"2000,,10000", []int{2000, 10000}, ""},
		{" 4 , 6 ,", []int{4, 6}, ""},
		{"4,,6", []int{4, 6}, ""},
		{"0", nil, `"0"`},
		{"4,-2", nil, `"-2"`},
		{"4,x", nil, `"x"`},
		{"1e3", nil, `"1e3"`},
		{",,", nil, "no sizes"},
	} {
		got, err := ParseSizes(c.in)
		if c.bad == "" {
			if err != nil || !slices.Equal(got, c.want) {
				t.Errorf("ParseSizes(%q) = %v, %v; want %v", c.in, got, err, c.want)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("ParseSizes(%q) = %v, %v; want an error naming %s", c.in, got, err, c.bad)
		}
	}
}

func TestConfigByName(t *testing.T) {
	for in, buses := range map[string]int{"1bus": 1, "3bus1fu": 3, "3BUS3FU": 3} {
		cfg, err := ConfigByName(in, rtable.CAM)
		if err != nil {
			t.Errorf("ConfigByName(%q): %v", in, err)
			continue
		}
		if cfg.Buses != buses || cfg.Table != rtable.CAM {
			t.Errorf("ConfigByName(%q) = %+v", in, cfg)
		}
	}
	cfg, err := ConfigByName("3bus3fu", rtable.Sequential)
	if err != nil || cfg.Matchers != 3 {
		t.Errorf("3bus3fu = %+v, %v", cfg, err)
	}
	if _, err := ConfigByName("5bus", rtable.CAM); err == nil {
		t.Error("unknown config accepted")
	}
}

func TestRunExitStatus(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		args   []string
		err    error // what the body returns
		runs   bool  // whether the body runs at all
		code   int
		stderr string // a substring stderr must hold; "" for empty stderr
	}{
		{nil, nil, true, 0, ""},
		{[]string{"-h"}, nil, false, 0, "Usage of tool"},
		{[]string{"-bogus"}, nil, false, 2, "flag provided but not defined: -bogus"},
		{[]string{"-seed", "x"}, nil, false, 2, `invalid value "x" for flag -seed`},
		{nil, Usage(errors.New("nothing to do")), true, 2, "tool: nothing to do\n"},
		{nil, fmt.Errorf("-sizes: %w", Usage(boom)), true, 2, "tool: -sizes: boom\n"},
		{nil, boom, true, 1, "tool: boom\n"},
	} {
		var stderr bytes.Buffer
		cmd := New("tool", io.Discard, &stderr, "seed")
		ran := false
		code := cmd.Run(c.args, func() error { ran = true; return c.err })
		if code != c.code || ran != c.runs || (c.stderr == "") != (stderr.Len() == 0) || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("Run(%q) with body error %v = %d (body ran %v), stderr %q; want %d (%v), stderr holding %q",
				c.args, c.err, code, ran, stderr.String(), c.code, c.runs, c.stderr)
		}
	}
}

// A body that fails still leaves both profiles behind.
func TestRunWritesProfilesWhenBodyFails(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	cmd := New("tool", io.Discard, io.Discard, "cpuprofile", "memprofile")
	if code := cmd.Run([]string{"-cpuprofile", cpu, "-memprofile", mem}, func() error {
		return errors.New("boom")
	}); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, p := range []string{cpu, mem} {
		checkGzip(t, p)
	}
}

// checkGzip fails t unless path holds a non-empty gzip stream, the
// container of both pprof profile kinds.
func checkGzip(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if body, err := io.ReadAll(zr); err != nil || len(body) == 0 {
		t.Fatalf("%s: %d bytes unpacked, %v", path, len(body), err)
	}
}

func TestWriteFile(t *testing.T) {
	if err := WriteFile("", func(io.Writer) error { t.Fatal("called for an empty path"); return nil }); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out")
	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "hi"); return err }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "hi" {
		t.Fatalf("wrote %q", got)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); err != boom {
		t.Fatalf("err = %v, want the writer's", err)
	}
}

// sharedFlags are the flags more than one tool has. Each is declared
// once, in Command.declare, with one name, type, default and help text;
// -packets is the one whose default is the tool's (PacketsFlag).
var sharedFlags = []string{"config", "table", "seed", "packets", "entries", "workers", "interp", "json",
	"hist", "metrics-out", "trace-out", "forensics-out", "f", "cpuprofile", "memprofile"}

// TestSharedFlagsDeclaredOnce reads every tool's source. A tool takes a
// shared flag only by naming it to New (or calling PacketsFlag) and
// never declares one on its FlagSet itself, so no tool can give a
// shared flag another type, default or help text than declare does;
// and every shared flag is taken by at least two tools.
func TestSharedFlagsDeclaredOnce(t *testing.T) {
	ref := New("ref", io.Discard, io.Discard)
	shared := map[string]bool{}
	for _, name := range sharedFlags {
		if name == "packets" {
			ref.PacketsFlag(0)
		} else {
			ref.declare(name)
		}
		shared[name] = true
	}
	ref.VisitAll(func(f *flag.Flag) {
		if !shared[f.Name] {
			t.Errorf("declare has -%s, which is not in sharedFlags", f.Name)
		}
	})

	files, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*", "main.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no tools found: %v", err)
	}
	users := map[string][]string{} // shared flag -> tools taking it
	for _, file := range files {
		tool := filepath.Base(filepath.Dir(file))
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch method := sel.Sel.Name; {
			case method == "New" && isIdent(sel.X, "cliutil"):
				for _, arg := range call.Args[min(3, len(call.Args)):] {
					name := stringLit(arg)
					if !shared[name] || name == "packets" {
						t.Errorf("%s: New takes %s, which is not a shared flag New declares", tool, name)
					}
					users[name] = append(users[name], tool)
				}
			case method == "PacketsFlag":
				users["packets"] = append(users["packets"], tool)
			case flagMethods[method]:
				i := 0
				if strings.HasSuffix(method, "Var") {
					i = 1
				}
				if i < len(call.Args) && shared[stringLit(call.Args[i])] {
					t.Errorf("%s declares -%s itself; take it through cliutil.New", tool, stringLit(call.Args[i]))
				}
			}
			return true
		})
	}
	for _, name := range sharedFlags {
		if len(users[name]) < 2 {
			t.Errorf("-%s is taken by %v: a shared flag is one more than one tool has", name, users[name])
		}
	}
}

// flagMethods are the flag.FlagSet methods that declare a flag.
var flagMethods = map[string]bool{
	"Bool": true, "BoolVar": true, "Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "String": true, "StringVar": true,
	"Float64": true, "Float64Var": true, "Duration": true, "DurationVar": true,
	"Var": true, "TextVar": true, "Func": true, "BoolFunc": true,
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// stringLit returns the value of a string literal, or "" for any other
// expression.
func stringLit(e ast.Expr) string {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	s, _ := strconv.Unquote(lit.Value)
	return s
}

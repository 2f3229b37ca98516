package cliutil

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParseDocBlocks(t *testing.T) {
	doc := "text\n<!-- run: tacoasm -figure3 -->\n```\na\nb\n```\n```sh\nunmarked\n```\n"
	blocks, err := parseDocBlocks("D.md", []byte(doc))
	if err != nil || len(blocks) != 1 {
		t.Fatalf("blocks %v, err %v", blocks, err)
	}
	b := blocks[0]
	if b.Pos != "D.md:2" || b.Tool != "tacoasm" || !slices.Equal(b.Args, []string{"-figure3"}) || !slices.Equal(b.Lines, []string{"a", "b"}) {
		t.Errorf("block = %+v", b)
	}
	for _, c := range []struct{ doc, err string }{
		{"<!-- run: tacofoo -x -->\n```\na\n```\n", "does not name"},
		{"<!-- run tacoasm -->\n```\na\n```\n", "does not name"},
		{"<!-- run: tacoasm -figure3 -->\n\n```\na\n```\n", "not followed by a fenced block"},
		{"<!-- run: tacoasm -figure3 -->\n```\n```\n", "empty or never closed"},
		{"<!-- run: tacoasm -figure3 -->\n```\na\n", "empty or never closed"},
	} {
		if _, err := parseDocBlocks("D.md", []byte(c.doc)); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%q: err %v, want %q", c.doc, err, c.err)
		}
	}
}

func TestDocBlockCheck(t *testing.T) {
	b := docBlock{Pos: "D.md:1", Tool: "tacoasm", Lines: []string{"b", "c"}}
	if err := b.check("a\nb\nc\nd\n"); err != nil {
		t.Error(err)
	}
	for _, stdout := range []string{"a\nb\nx\nc\n", "c\nb\n", "a\nb\nc 1\n", ""} {
		if b.check(stdout) == nil {
			t.Errorf("block %q passed against stdout %q", b.Lines, stdout)
		}
	}
	run := func(args []string, stdout, stderr io.Writer) int {
		fmt.Fprintln(stdout, strings.Join(args, "\n"))
		return 0
	}
	if errs := CheckDocBlocks(filepath.Join("..", ".."), "tacoasm", run); len(errs) == 0 {
		t.Error("a tool printing its arguments passed the documents' tacoasm blocks")
	}
}

// Every marker in the documents parses and names a cmd/ tool, so a
// misspelt marker fails here instead of skipping its block.
func TestDocMarkersNameTools(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	for _, m := range mains {
		cmds = append(cmds, filepath.Base(filepath.Dir(m)))
	}
	if !slices.Equal(cmds, docTools) {
		t.Errorf("cmd/ holds %v, markers may name %v", cmds, docTools)
	}
	blocks, err := docBlocks(filepath.Join("..", ".."))
	if err != nil || len(blocks) == 0 {
		t.Fatalf("%d marked blocks, err %v", len(blocks), err)
	}
}

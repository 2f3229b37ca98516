package cliutil

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// docTools are the tools a doc-block marker may name: the cmd/ tools.
var docTools = []string{"tacoasm", "tacoexplore", "tacoreplay", "tacoroute", "tacosim", "tacotopo"}

// docFiles are the documents whose marked blocks the tools' tests re-run.
var docFiles = []string{"README.md", "EXPERIMENTS.md"}

// A docBlock is a fenced block of a document that shows a tool's output.
// The line just before its opening fence is the marker
//
//	<!-- run: <tool> <args> -->
//
// and the block's lines must appear as one contiguous run of the lines
// the tool prints on stdout when run with args.
type docBlock struct {
	Pos   string // file:line of the marker
	Tool  string
	Args  []string
	Lines []string
}

// docBlocks reads the marked blocks of README.md and EXPERIMENTS.md in
// the directory root.
func docBlocks(root string) ([]docBlock, error) {
	var all []docBlock
	for _, name := range docFiles {
		doc, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			return nil, err
		}
		blocks, err := parseDocBlocks(name, doc)
		if err != nil {
			return nil, err
		}
		all = append(all, blocks...)
	}
	return all, nil
}

// parseDocBlocks returns the marked blocks of one document. Every line
// that starts with "<!-- run" is a marker: one that names no tool, or
// is not followed by a closed, non-empty fenced block, is an error.
func parseDocBlocks(name string, doc []byte) ([]docBlock, error) {
	lines := strings.Split(string(doc), "\n")
	var blocks []docBlock
	for i, line := range lines {
		if !strings.HasPrefix(line, "<!-- run") {
			continue
		}
		pos := fmt.Sprintf("%s:%d", name, i+1)
		body, ok := strings.CutPrefix(line, "<!-- run:")
		body, ok2 := strings.CutSuffix(body, "-->")
		fields := strings.Fields(body)
		if !ok || !ok2 || len(fields) == 0 || !slices.Contains(docTools, fields[0]) {
			return nil, fmt.Errorf("%s: marker %q does not name one of %v", pos, line, docTools)
		}
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "```") {
			return nil, fmt.Errorf("%s: marker is not followed by a fenced block", pos)
		}
		end := slices.Index(lines[i+2:], "```")
		if end <= 0 {
			return nil, fmt.Errorf("%s: marked block is empty or never closed", pos)
		}
		blocks = append(blocks, docBlock{Pos: pos, Tool: fields[0], Args: fields[1:], Lines: lines[i+2 : i+2+end]})
	}
	return blocks, nil
}

// check reports an error unless stdout holds the block's lines as one
// contiguous run.
func (b docBlock) check(stdout string) error {
	out := strings.Split(stdout, "\n")
	for i := 0; i+len(b.Lines) <= len(out); i++ {
		if slices.Equal(out[i:i+len(b.Lines)], b.Lines) {
			return nil
		}
	}
	return fmt.Errorf("%s: %s %s: the block is not one contiguous run of stdout:\n%s",
		b.Pos, b.Tool, strings.Join(b.Args, " "), stdout)
}

// CheckDocBlocks runs tool's marked blocks of the documents in root
// through run, the tool's run(args, stdout, stderr) seam, and returns
// one error per block that fails to run or is missing from stdout.
func CheckDocBlocks(root, tool string, run func(args []string, stdout, stderr io.Writer) int) []error {
	blocks, err := docBlocks(root)
	if err != nil {
		return []error{err}
	}
	var errs []error
	for _, b := range blocks {
		if b.Tool != tool {
			continue
		}
		var stdout, stderr bytes.Buffer
		if code := run(b.Args, &stdout, &stderr); code != 0 {
			errs = append(errs, fmt.Errorf("%s: %s %s: exit %d: %s", b.Pos, tool, strings.Join(b.Args, " "), code, stderr.String()))
		} else if err := b.check(stdout.String()); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

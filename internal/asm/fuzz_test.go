package asm

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzAssemble feeds assembly text to Assemble, as tacosim -f and
// tacoasm -f do with a .s file: it must never panic, and a program it
// accepts must disassemble to text that assembles to the same
// instructions and loads onto the machine or fails to cleanly.
func FuzzAssemble(f *testing.F) {
	f.Add(figure3Like)
	f.Add(roundTripSource)
	for _, src := range badSources {
		f.Add(src)
	}
	if src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "trace", "loop.tasm")); err == nil {
		f.Add(string(src))
	}
	m := testMachine(f)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src, m)
		if err != nil {
			return
		}
		text := Disassemble(p, m)
		again, err := Assemble(text, m)
		if err != nil {
			t.Fatalf("disassembly does not assemble: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(again.Ins, p.Ins) {
			t.Fatalf("disassembly assembles to other instructions:\n%s", text)
		}
		_ = m.Load(p)
	})
}

package asm

import (
	"strings"
	"testing"

	"taco/internal/fu"
	"taco/internal/isa"
	"taco/internal/tta"
)

func testMachine(t testing.TB) *tta.Machine {
	t.Helper()
	m, err := fu.NewComputeMachine(fu.Config3Bus1FU(0))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

const figure3Like = `
; compute a = (b*2 + c) / 4 with b=5, c=6 (expect 4)
start:
    #5 -> shf0.tmul2             ; b*2
    shf0.r -> cnt0.o
    #6 -> cnt0.tadd              ; +c ... wait: tadd computes value+o
    #2 -> shf0.amt, cnt0.r -> shf0.tr   ; /4
    shf0.r -> gpr.r0
    #0 -> nc.halt
`

func TestAssembleAndRun(t *testing.T) {
	m := testMachine(t)
	p, err := Assemble(figure3Like, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadSocket("gpr.r0"); got != 4 {
		t.Errorf("gpr.r0 = %d, want 4", got)
	}
}

func TestAssembleLabelsAndJumps(t *testing.T) {
	m := testMachine(t)
	src := `
    #3 -> cnt0.tld
loop:
    cnt0.r -> cnt0.tdec
    ?!cnt0.zero @loop -> nc.jmp
    #1 -> gpr.r0
`
	p, err := Assemble(src, m)
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["loop"] != 1 {
		t.Errorf("label loop = %d", p.Labels["loop"])
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadSocket("gpr.r0"); got != 1 {
		t.Errorf("loop did not terminate properly: r0 = %d", got)
	}
	if got, _ := m.ReadSocket("cnt0.r"); got != 0 {
		t.Errorf("counter = %d, want 0", got)
	}
}

func TestAssembleGuardConjunction(t *testing.T) {
	m := testMachine(t)
	src := `
    #5 -> cmp0.o, #5 -> cmp0.t
    #1 -> mat0.mask, #1 -> mat0.ref, #1 -> mat0.t
    ?cmp0.eq&mat0.match #42 -> gpr.r0
    ?cmp0.eq&!mat0.match #9 -> gpr.r1
`
	p, err := Assemble(src, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadSocket("gpr.r0"); got != 42 {
		t.Errorf("conjunction guard failed: r0 = %d", got)
	}
	if got, _ := m.ReadSocket("gpr.r1"); got != 0 {
		t.Errorf("negated conjunction executed: r1 = %d", got)
	}
}

func TestAssembleImmediates(t *testing.T) {
	m := testMachine(t)
	src := `
    #0xff -> gpr.r0, #-1 -> gpr.r1, #4294967295 -> gpr.r2
`
	p, err := Assemble(src, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	for reg, want := range map[string]uint32{"gpr.r0": 0xff, "gpr.r1": 0xffffffff, "gpr.r2": 0xffffffff} {
		if got, _ := m.ReadSocket(reg); got != want {
			t.Errorf("%s = %d, want %d", reg, got, want)
		}
	}
}

// badSources are programs Assemble must reject, by what is wrong.
var badSources = map[string]string{
	"unknown socket":  "#1 -> bogus.x",
	"unknown signal":  "?bogus.sig #1 -> gpr.r0",
	"undefined label": "@nowhere -> nc.jmp",
	"bad move":        "gpr.r0 gpr.r1",
	"bad immediate":   "#zz -> gpr.r0",
	"guard alone":     "?cmp0.eq",
	"duplicate label": "x:\nx:\n#1 -> gpr.r0",
	"too many guards": "?cmp0.eq&cmp0.lt&cmp0.gt&shf0.zero #1 -> gpr.r0",
}

func TestAssembleErrors(t *testing.T) {
	m := testMachine(t)
	for name, src := range badSources {
		if _, err := Assemble(src, m); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestNopAndComments(t *testing.T) {
	m := testMachine(t)
	p, err := Assemble("; only a comment\nnop\nnop\n", m)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ins) != 2 || len(p.Ins[0].Moves) != 0 {
		t.Errorf("program = %+v", p.Ins)
	}
}

const roundTripSource = `
start:
    #5 -> shf0.tmul2
    shf0.r -> cnt0.o, #6 -> cnt0.tadd
loop:
    ?!cnt0.zero @loop -> nc.jmp
    nop
    ?cmp0.eq&!mat0.match gpr.r0 -> gpr.r1
`

func TestDisassembleRoundTrip(t *testing.T) {
	m := testMachine(t)
	p1, err := Assemble(roundTripSource, m)
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(p1, m)
	p2, err := Assemble(text, m)
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, text)
	}
	if len(p2.Ins) != len(p1.Ins) {
		t.Fatalf("instruction count %d vs %d", len(p2.Ins), len(p1.Ins))
	}
	for i := range p1.Ins {
		if len(p1.Ins[i].Moves) != len(p2.Ins[i].Moves) {
			t.Fatalf("ins %d move count differs", i)
		}
		for j := range p1.Ins[i].Moves {
			a, bm := p1.Ins[i].Moves[j], p2.Ins[i].Moves[j]
			if a.Dst != bm.Dst || a.Src != bm.Src || len(a.Guard.Terms) != len(bm.Guard.Terms) {
				t.Errorf("ins %d move %d: %+v vs %+v", i, j, a, bm)
			}
		}
	}
}

func TestBuilderBasics(t *testing.T) {
	m := testMachine(t)
	b := NewBuilder(m)
	b.Imm(3, "cnt0.tld")
	b.Label("loop")
	b.Move("cnt0.r", "cnt0.tdec")
	b.JumpIf(b.Guard("!cnt0.zero"), "loop")
	b.Imm(7, "gpr.r0")
	b.Imm(8, "gpr.r1")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadSocket("gpr.r0"); got != 7 {
		t.Errorf("r0 = %d", got)
	}
	if got, _ := m.ReadSocket("gpr.r1"); got != 8 {
		t.Errorf("r1 = %d", got)
	}
}

func TestBuilderForwardReference(t *testing.T) {
	m := testMachine(t)
	b := NewBuilder(m)
	b.Jump("end") // forward reference
	b.Imm(1, "gpr.r0")
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadSocket("gpr.r0"); got != 0 {
		t.Error("jumped-over instruction executed")
	}
}

func TestBuilderErrors(t *testing.T) {
	m := testMachine(t)
	b := NewBuilder(m)
	b.Move("nope.q", "gpr.r0")
	if _, err := b.Build(); err == nil {
		t.Error("unknown socket accepted")
	}
	b2 := NewBuilder(m)
	b2.Jump("missing")
	if _, err := b2.Build(); err == nil {
		t.Error("undefined label accepted")
	}
	b3 := NewBuilder(m)
	b3.Label("a")
	b3.Label("a")
	if _, err := b3.Build(); err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestBuilderLabelImm(t *testing.T) {
	m := testMachine(t)
	b := NewBuilder(m)
	b.LabelImm("target", "gpr.r0")
	b.Halt()
	b.Label("target")
	b.Nop()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadSocket("gpr.r0"); got != 2 {
		t.Errorf("label address = %d, want 2", got)
	}
}

func TestFormatMove(t *testing.T) {
	m := testMachine(t)
	mv := isa.Move{
		Guard: isa.Guard{Terms: []isa.GuardTerm{{Signal: m.MustSignal("cnt0.zero"), Negate: true}}},
		Src:   isa.ImmSrc(7),
		Dst:   m.MustSocket("gpr.r0"),
	}
	got := FormatMove(mv, m)
	if !strings.Contains(got, "?!cnt0.zero") || !strings.Contains(got, "#7") || !strings.Contains(got, "gpr.r0") {
		t.Errorf("FormatMove = %q", got)
	}
}

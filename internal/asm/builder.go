package asm

import (
	"fmt"

	"taco/internal/isa"
)

// Builder constructs programs programmatically; the code generators in
// internal/program use it. Each appended move occupies its own
// instruction (cycle). Jump targets may be referenced before they are
// defined — Build patches label immediates.
type Builder struct {
	r    Resolver
	prog *isa.Program

	patches []builderPatch
	errs    []error
}

// builderPatch is a label immediate to resolve: the one move of
// instruction ins.
type builderPatch struct {
	ins   int
	label string
}

// NewBuilder returns a builder resolving names against r.
func NewBuilder(r Resolver) *Builder {
	return &Builder{r: r, prog: isa.NewProgram()}
}

func (b *Builder) fail(format string, args ...interface{}) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Label binds name to the next instruction address.
func (b *Builder) Label(name string) {
	if _, dup := b.prog.Labels[name]; dup {
		b.fail("asm: duplicate label %q", name)
		return
	}
	b.prog.Labels[name] = len(b.prog.Ins)
}

func (b *Builder) appendMove(m isa.Move, labelRef string) {
	if labelRef != "" {
		b.patches = append(b.patches, builderPatch{len(b.prog.Ins), labelRef})
	}
	b.prog.Ins = append(b.prog.Ins, isa.Instruction{Moves: []isa.Move{m}})
}

func (b *Builder) socket(name string) isa.SocketID {
	id, err := b.r.Socket(name)
	if err != nil {
		b.fail("asm: %v", err)
		return isa.InvalidSocket
	}
	return id
}

// Guard builds a guard from signal names; a leading '!' negates a term.
func (b *Builder) Guard(signals ...string) isa.Guard {
	var g isa.Guard
	for _, s := range signals {
		neg := len(s) > 0 && s[0] == '!'
		if neg {
			s = s[1:]
		}
		id, err := b.r.Signal(s)
		if err != nil {
			b.fail("asm: %v", err)
			continue
		}
		g.Terms = append(g.Terms, isa.GuardTerm{Signal: id, Negate: neg})
	}
	if err := g.Validate(); err != nil {
		b.fail("asm: %v", err)
	}
	return g
}

// Move appends src -> dst (both socket names).
func (b *Builder) Move(src, dst string) {
	b.appendMove(isa.Move{Src: isa.SocketSrc(b.socket(src)), Dst: b.socket(dst)}, "")
}

// Imm appends #v -> dst.
func (b *Builder) Imm(v uint32, dst string) {
	b.appendMove(isa.Move{Src: isa.ImmSrc(v), Dst: b.socket(dst)}, "")
}

// GuardedMove appends a guarded socket move.
func (b *Builder) GuardedMove(g isa.Guard, src, dst string) {
	b.appendMove(isa.Move{Guard: g, Src: isa.SocketSrc(b.socket(src)), Dst: b.socket(dst)}, "")
}

// GuardedImm appends a guarded immediate move.
func (b *Builder) GuardedImm(g isa.Guard, v uint32, dst string) {
	b.appendMove(isa.Move{Guard: g, Src: isa.ImmSrc(v), Dst: b.socket(dst)}, "")
}

// Jump appends an unconditional jump to label.
func (b *Builder) Jump(label string) {
	b.appendMove(isa.Move{Src: isa.ImmSrc(0), Dst: b.socket("nc.jmp")}, label)
}

// JumpIf appends a guarded jump to label.
func (b *Builder) JumpIf(g isa.Guard, label string) {
	b.appendMove(isa.Move{Guard: g, Src: isa.ImmSrc(0), Dst: b.socket("nc.jmp")}, label)
}

// LabelImm appends a move of label's address to dst (for computed jumps).
func (b *Builder) LabelImm(label, dst string) {
	b.appendMove(isa.Move{Src: isa.ImmSrc(0), Dst: b.socket(dst)}, label)
}

// Halt appends a write to the controller's halt socket.
func (b *Builder) Halt() { b.Imm(0, "nc.halt") }

// Nop appends an empty cycle.
func (b *Builder) Nop() {
	b.prog.Ins = append(b.prog.Ins, isa.Instruction{})
}

// Build resolves label patches and returns the program.
func (b *Builder) Build() (*isa.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, pt := range b.patches {
		addr, ok := b.prog.Labels[pt.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", pt.label)
		}
		b.prog.Ins[pt.ins].Moves[0].Src = isa.ImmSrc(uint32(addr))
	}
	return b.prog, nil
}

// Package sched implements TACO code optimization and bus scheduling
// (paper §3 and Figure 3): given a sequential move stream, it applies the
// TTA-specific optimizations — bypassing, operand sharing, dead-move
// elimination — and then packs the surviving moves onto the target's
// buses, honouring data, structural and control dependencies.
//
// "Code optimization for TACO processors reduces in fact to well-known
// bus scheduling and registry allocation problems" — the same program is
// retargeted to 1-bus and 3-bus architecture instances purely by
// re-running the scheduler.
package sched

import (
	"fmt"

	"taco/internal/isa"
	"taco/internal/obs"
	"taco/internal/tta"
)

// Target describes the machine the scheduler compiles for;
// *tta.Machine implements it.
type Target interface {
	Buses() int
	Socket(name string) (isa.SocketID, error)
	SocketKindOf(id isa.SocketID) (tta.SocketKind, bool)
	SocketUnit(id isa.SocketID) (int, bool)
	SignalUnit(id isa.SignalID) (int, bool)
	UnitOperandSockets(u int) []isa.SocketID
	// UnitHazardClass is the Hazard its port table declares: the
	// out-of-band resource a unit shares with others (e.g. the data
	// memory for the MMU and the DMA units); "" means none. Triggers
	// within one class stay in program order.
	UnitHazardClass(u int) string
	// SocketCount and UnitCount size the scheduler's dependency-tracking
	// scratch state (socket IDs are 1..SocketCount, units 0..UnitCount-1).
	SocketCount() int
	UnitCount() int
}

// Options selects optimization passes.
type Options struct {
	// Bypass forwards functional-unit results directly to their
	// consumers, eliminating copies through general-purpose registers.
	Bypass bool
	// PropagateImmediates replaces reads of a register holding a known
	// immediate with the immediate itself.
	PropagateImmediates bool
	// ShareOperands removes writes of an immediate already held by the
	// operand register (operand registers are latched across triggers).
	ShareOperands bool
	// EliminateDeadMoves removes register writes that are overwritten —
	// or the machine halts — before the register is read.
	EliminateDeadMoves bool
}

// AllOptimizations enables every pass.
var AllOptimizations = Options{
	Bypass:              true,
	PropagateImmediates: true,
	ShareOperands:       true,
	EliminateDeadMoves:  true,
}

// NoOptimizations disables every pass (pure rescheduling).
var NoOptimizations = Options{}

// Result carries the compiled program and its size metrics.
type Result struct {
	Program *isa.Program
	// MovesIn/MovesOut count data transports before and after
	// optimization — the TTA code-size measure.
	MovesIn, MovesOut int
	// Cycles is the scheduled instruction count (static cycles).
	Cycles int
	// Stalls attributes, per hazard cause, the cycles moves had to wait
	// beyond their block floor before they could be placed — the static
	// half of the stall taxonomy (the router's watchdog charges the
	// dynamic half). Deterministic for a given (program, target).
	Stalls obs.StallCounters
}

// Compile optimizes and schedules prog for t. The input program is
// interpreted sequentially (instruction boundaries in the input are
// dissolved; only label positions and control transfers are preserved).
// Jump immediates must correspond to labelled addresses so they can be
// relocated.
func Compile(prog *isa.Program, t Target, opt Options) (*Result, error) {
	blocks, err := flatten(prog, t)
	if err != nil {
		return nil, err
	}
	movesIn := 0
	for _, b := range blocks {
		movesIn += len(b.moves)
	}
	if opt.Bypass || opt.ShareOperands || opt.EliminateDeadMoves {
		for i := range blocks {
			optimizeBlock(&blocks[i], t, opt)
		}
	}
	res := &Result{MovesIn: movesIn}
	out, err := schedule(blocks, t, &res.Stalls)
	if err != nil {
		return nil, err
	}
	res.Program = out
	res.MovesOut = out.MoveCount()
	res.Cycles = len(out.Ins)
	return res, nil
}

// block is a run of moves with no incoming control transfers except at
// the top and no outgoing ones except via explicit jump moves, which may
// only appear anywhere but act as scheduling floors.
type block struct {
	labels []string // labels bound to the block head
	moves  []flatMove
}

type flatMove struct {
	m isa.Move
	// jumpTo is the target label when this move writes nc.jmp with a
	// label-resolvable immediate.
	jumpTo string
	isJump bool // writes nc.jmp
	isHalt bool // writes nc.halt
}

// flatten splits prog into blocks at labels, dissolving instruction
// packing.
func flatten(prog *isa.Program, t Target) ([]block, error) {
	jmpID, err := t.Socket("nc.jmp")
	if err != nil {
		return nil, err
	}
	haltID, err := t.Socket("nc.halt")
	if err != nil {
		return nil, err
	}
	labelAt := make(map[int][]string)
	for name, addr := range prog.Labels {
		labelAt[addr] = append(labelAt[addr], name)
	}
	addrLabel := func(addr uint32) (string, bool) {
		ls := labelAt[int(addr)]
		if len(ls) == 0 {
			return "", false
		}
		// Deterministic pick.
		best := ls[0]
		for _, l := range ls[1:] {
			if l < best {
				best = l
			}
		}
		return best, true
	}

	var blocks []block
	cur := block{}
	flushAt := func(addr int) {
		if ls := labelAt[addr]; len(ls) > 0 {
			if len(cur.moves) > 0 || len(cur.labels) > 0 {
				blocks = append(blocks, cur)
			}
			cur = block{labels: append([]string(nil), ls...)}
		}
	}
	for addr, in := range prog.Ins {
		flushAt(addr)
		for _, m := range in.Moves {
			fm := flatMove{m: m}
			switch m.Dst {
			case jmpID:
				fm.isJump = true
				if m.Src.Imm {
					lbl, ok := addrLabel(m.Src.Value)
					if !ok {
						return nil, fmt.Errorf("sched: jump to unlabelled address %d", m.Src.Value)
					}
					fm.jumpTo = lbl
				} else {
					return nil, fmt.Errorf("sched: computed jumps are not schedulable")
				}
			case haltID:
				fm.isHalt = true
			}
			cur.moves = append(cur.moves, fm)
		}
	}
	flushAt(len(prog.Ins))
	if len(cur.moves) > 0 || len(cur.labels) > 0 {
		blocks = append(blocks, cur)
	}
	return blocks, nil
}

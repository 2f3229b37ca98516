package tta

import (
	"fmt"
	mathbits "math/bits"

	"taco/internal/isa"
	"taco/internal/obs"
)

// This file implements the compiled fast path: for a fixed machine
// instance and loaded program, UseCompiled pre-lowers every lean
// instruction into flat per-move records — guards resolved to the flags
// of the units' port tables, sources and destinations to their
// registers and (value, armed) latches, immediates inlined — so the step
// loop touches no maps, no socket tables and no per-move validation. An
// instruction is lean when it cannot fail: every source a register or an
// immediate, every guard absent or one inlined flag, every destination a
// unit write, a trigger or nc.jmp, and no two moves writing one socket
// or triggering one unit. Each of its moves is two records at its flat
// index: the hot cmove, all the cycle loop reads, and the cold ccold,
// read only by the flight recorder. Every other instruction runs through
// the interpreter's own move loop (Machine.moves), so every move check
// and its error text exist once. The compiled step is required to be
// bit-identical to the interpreter's: same cycle counts, same halt
// behavior, same errors, same observable socket/FU/stats state after
// every cycle. The lockstep tests in edge_test.go, the root-level
// TestCompiledVsInterpreted and FuzzCompiledVsInterpreted enforce that
// contract.

// cmove is the hot half of a pre-lowered move of a lean instruction:
// everything the cycle loop reads, in one 48-byte record.
type cmove struct {
	// src is the register the move reads: the source socket's, or imm
	// for an immediate.
	src *uint32
	// val/armed are the destination's (value, armed) latch, nil for
	// nc.jmp. Latch writes are invisible until Clock and a lean
	// instruction cannot fail mid-cycle, so the store goes straight in.
	val   *uint32
	armed *bool
	// flag/neg inline a single-term guard on a flag; flag is nil when the
	// move is unguarded.
	flag *bool
	// act is the bit the move's write sets in the active-unit mask (see
	// fastPath.act).
	act  uint64
	imm  uint32
	neg  bool
	jump bool // destination is nc.jmp
}

// ccold is the cold half of a pre-lowered move: its flight-recorder
// event kind when it executes, and recSrc (-1 for an immediate, else
// the source SocketID) and recDst (the destination SocketID), exactly
// what the interpreter records.
type ccold struct {
	recSrc, recDst int32
	kind           uint8
}

// cins is one pre-lowered instruction: its moves are [start, end) of the
// flat move arrays (one for the whole program, so stepping an
// instruction is a contiguous scan, not a per-pc slice chase). Only a
// lean instruction's records are read.
type cins struct {
	start, end int32
	lean       bool // see the file comment
}

// fastPath is a machine's compiled step path, installed by UseCompiled:
// the loaded program pre-lowered into flat step records. It shares the
// machine's state — pc, halt flag, statistics, stamp arrays and of
// course the units — so observers (SnapshotSockets, Stats, PC, Halted)
// see the values the interpreter would leave after every cycle.
//
// The execution count is native: the fast path counts each completed
// cycle against its PC and each guard-failed move against its flat
// index — the same cycles and moves the interpreter counts. The flight
// recorder is native the same way, so no observer ever makes a
// compiled machine execute a cycle through the interpreter.
type fastPath struct {
	m   *Machine
	ins []cins
	// moves and cold back every instruction's [start:end) window.
	moves []cmove
	cold  []ccold

	// Clock-skipping state. A unit is "active" — its Clock must run this
	// cycle — unless its clocking promise let it settle at its last Clock
	// and nothing has been written since that needs a Clock (see
	// fastPath.act); ClockEvery units are permanently active. Activity is a
	// bitmask with one bit per unit (hence the 64-unit limit), iterated
	// lowest-bit-first to preserve the interpreter's declaration-order
	// clocking. onWrite holds the ClockOnWrite units' bits: they settle
	// at every Clock.
	active  uint64
	allMask uint64
	onWrite uint64
	slots   []unitSlot

	// dirty marks the idle cache invalid: set on installation, by Reset
	// and by a cycle that ended in an error, when unit activity may have
	// changed without a socket write the fast path saw.
	dirty bool
}

// unitSlot is everything the clock loop reads of one unit, in one
// record: the unit and, for a ClockSettled unit, its Settled hook (nil
// for every other promise).
type unitSlot struct {
	u       Unit
	settled func() bool
}

// MaxCompiledUnits is the most functional units a machine may have for
// UseCompiled: the fast path tracks unit activity in one 64-bit mask.
// The interpreter has no such limit.
const MaxCompiledUnits = 64

// UseCompiled switches the machine to the compiled fast path: the
// loaded program's lean instructions are pre-lowered once, and from then
// on Step, Run, RunStepped and RunToPC run them from the lowered records
// and every other instruction through the interpreter's move loop, bit
// for bit as the interpreter would — execution count and recorder events
// included. A later Load lowers the new program. A refused switch (no
// program loaded, more than MaxCompiledUnits units) leaves the machine
// on the interpreter.
func (m *Machine) UseCompiled() error {
	if m.prog == nil {
		return fmt.Errorf("tta: compile: no program loaded")
	}
	n := len(m.units)
	if n > MaxCompiledUnits {
		return fmt.Errorf("tta: compile: %d units exceed the compiled path's %d-unit limit; use the interpreter",
			n, MaxCompiledUnits)
	}
	c := &fastPath{
		m:     m,
		ins:   make([]cins, len(m.prog.Ins)),
		slots: make([]unitSlot, n),
		dirty: true,
	}
	if n > 0 {
		c.allMask = ^uint64(0) >> (64 - uint(n))
	}
	for i, u := range m.units {
		t := u.Ports()
		c.slots[i] = unitSlot{u: u, settled: t.Settled}
		if t.Clocking == ClockOnWrite {
			c.onWrite |= 1 << uint(i)
		}
	}
	// One flat pair of move arrays for the whole program, sized up
	// front: each instruction lowers straight into its window.
	c.moves = make([]cmove, m.prog.MoveCount())
	c.cold = make([]ccold, len(c.moves))
	start := 0
	for pc, in := range m.prog.Ins {
		c.ins[pc] = c.lowerInstruction(in, start)
		start += len(in.Moves)
	}
	m.fast = c
	return nil
}

// Compiled reports whether the machine runs on the compiled fast path.
func (m *Machine) Compiled() bool { return m.fast != nil }

// hazard reports whether another move of in writes the same socket as
// move i or triggers the same unit. Guards are ignored: whether both
// actually execute is decided at run time, by the interpreter's move
// loop and its stamp arrays, so a hazard makes the instruction not lean.
// An instruction holds at most one move per bus, so the scan is a few
// compares.
func (m *Machine) hazard(in isa.Instruction, i int) bool {
	ref := m.sockRef(in.Moves[i].Dst)
	trig := ref.unit >= 0 && ref.kind == Trigger
	for k, mv := range in.Moves {
		other := m.sockRef(mv.Dst)
		if k != i && other != nil && (mv.Dst == in.Moves[i].Dst ||
			trig && other.unit == ref.unit && other.kind == Trigger) {
			return true
		}
	}
	return false
}

// lowerInstruction lowers in into the move windows [start, start+len)
// when it is lean, and reports whether it is.
func (c *fastPath) lowerInstruction(in isa.Instruction, start int) cins {
	ci := cins{start: int32(start), end: int32(start + len(in.Moves)), lean: true}
	for bus := range in.Moves {
		ci.lean = ci.lean && c.lowerMove(&c.moves[start+bus], &c.cold[start+bus], in, bus)
	}
	return ci
}

// lowerMove lowers move bus of in into its hot and cold records and
// reports whether the move is lean (see the file comment); it stops at
// the first thing that is not.
func (c *fastPath) lowerMove(cm *cmove, cc *ccold, in isa.Instruction, bus int) bool {
	m, mv := c.m, in.Moves[bus]
	*cc = ccold{recSrc: recSrcCode(mv.Src), recDst: int32(mv.Dst)}
	if terms := mv.Guard.Terms; len(terms) > 0 {
		if len(terms) > 1 || int(terms[0].Signal) >= len(m.signals) || m.signals[terms[0].Signal].flag == nil {
			return false
		}
		cm.flag, cm.neg = m.signals[terms[0].Signal].flag, terms[0].Negate
	}
	if mv.Src.Imm {
		cm.imm = mv.Src.Value
		cm.src = &cm.imm
	} else {
		ref := m.sockRef(mv.Src.Socket)
		if ref == nil || ref.kind != Result && ref.kind != Register || ref.reg == nil {
			return false
		}
		cm.src = ref.reg
	}
	ref := m.sockRef(mv.Dst)
	if ref == nil || m.hazard(in, bus) {
		return false
	}
	switch {
	case ref.unit < 0 && ref.ctl == ctlJump:
		cm.jump, cc.kind = true, obs.EvJump
	case ref.unit < 0 || ref.kind == Result:
		return false // nc.halt, or a write that fails
	default:
		cm.val, cm.armed, cm.act = ref.val, ref.armed, c.act(ref)
		cc.kind = obs.EvMove
		if ref.kind == Trigger {
			cc.kind = obs.EvTrigger
		}
	}
	return true
}

// act is the bit a write to ref sets in the active-unit mask: its unit's,
// or 0 when the write needs no Clock of its own — a write to an Operand
// socket of a ClockOnWrite unit, which the unit's next Clock commits
// before any trigger reads it.
func (c *fastPath) act(ref *socketRef) uint64 {
	if ref.kind == Operand && c.onWrite&(1<<uint(ref.unit)) != 0 {
		return 0
	}
	return 1 << uint(ref.unit)
}

// runToPC is Machine.RunToPC on the fast path. Per-cycle bookkeeping
// (statistics, pc, the cycle stamp) lives in locals and is flushed to
// the machine on every exit path, so observable state is bit-identical
// to stepping the interpreter the same number of cycles — while the
// tight loop itself touches almost no shared memory. Consecutive lean
// instructions run in the inner loop, which stops at the first one that
// is not lean; that one's moves go through the interpreter's move loop,
// in the same cycle steps around them.
func (c *fastPath) runToPC(stopPC int, maxSteps int64) (int64, error) {
	m := c.m
	if c.dirty {
		// Freshly installed, reset, or left mid-cycle by an error: every
		// cached "this unit is idle" fact is suspect, so clock everything
		// until units re-report settled.
		c.active = c.allMask
		c.dirty = false
	} else {
		// Ask every parked ClockSettled unit again: input from outside
		// the machine (a line card delivery) may have unsettled it since
		// the last batch. Nothing inside a batch delivers such input, so
		// one check per batch suffices.
		for a := c.allMask &^ c.active &^ c.onWrite; a != 0; a &= a - 1 {
			if ui := mathbits.TrailingZeros64(a); !c.slots[ui].settled() {
				c.active |= 1 << uint(ui)
			}
		}
	}

	statsBase := m.stats.Cycles
	pc, stamp, halted := m.pc, m.stamp, m.halted
	var cycles, encoded, moved int64
	var retErr error
	ins, moves, cold := c.ins, c.moves, c.cold
	active := c.active
	// The execution count: a guard failure is counted and stamped at
	// once, the PC when its cycle completes; a failed cycle is uncounted
	// on exit (see Machine.Step).
	issued, squashed, sqStamp := m.issued, m.squashed, m.sqStamp
	// The flight recorder is native here too, recording at the
	// interpreter's exact event points so an armed recorder sees a
	// bit-identical stream on either path. rec == nil is the common
	// disabled case and costs one predictable branch per move.
	rec := m.Recorder

loop:
	for !halted && cycles < maxSteps {
		if uint(pc) >= uint(len(ins)) {
			halted = true
			break
		}
		ci := &ins[pc]
		// The lean loop. It leaves the batch where the cycle below
		// would — out-of-range PC, stop PC, budget, unit fault — and falls
		// through to it at the first instruction that is not lean.
		for ci.lean {
			if stamp++; stamp == 0 {
				stamp = m.restamp()
			}
			if rec != nil {
				rec.SetCycle(statsBase + cycles)
			}
			nextPC := pc + 1
			base, ms := int(ci.start), moves[ci.start:ci.end]
			for bus := range ms {
				mv := &ms[bus]
				if mv.flag != nil && *mv.flag == mv.neg {
					squashed[base+bus]++
					sqStamp[base+bus] = stamp
					if rec != nil {
						cc := &cold[base+bus]
						rec.Record(obs.RecEvent{Kind: obs.EvGuardFalse, PC: int32(pc), Bus: int16(bus),
							Src: cc.recSrc, Dst: cc.recDst})
					}
					continue // guard failed: move not executed
				}
				v := *mv.src
				if rec != nil {
					cc := &cold[base+bus]
					rec.Record(obs.RecEvent{Kind: cc.kind, PC: int32(pc), Bus: int16(bus),
						Src: cc.recSrc, Dst: cc.recDst, Value: v})
				}
				if mv.jump {
					nextPC = int(v)
				} else {
					*mv.val, *mv.armed = v, true
					active |= mv.act
				}
				moved++
			}
			if active, retErr = c.clock(active, pc, statsBase+cycles); retErr != nil {
				break loop
			}
			cycles++
			encoded += int64(len(ms))
			issued[pc]++
			pc = nextPC
			if uint(pc) >= uint(len(ins)) {
				halted = true
				break loop
			}
			if stopPC >= 0 && pc == stopPC || cycles == maxSteps {
				break loop
			}
			ci = &ins[pc]
		}
		// ci is not lean.
		if stamp++; stamp == 0 {
			stamp = m.restamp()
		}
		if rec != nil {
			rec.SetCycle(statsBase + cycles)
		}
		nextPC, n, haltReq, err := m.moves(pc, stamp)
		if moved += n; err != nil {
			retErr = err
			break
		}
		for _, w := range m.writes {
			active |= c.act(w.ref)
		}
		if active, retErr = c.clock(active, pc, statsBase+cycles); retErr != nil {
			break
		}
		cycles++
		encoded += int64(ci.end - ci.start)
		issued[pc]++
		halted = haltReq
		pc = nextPC
		if uint(pc) >= uint(len(ins)) {
			halted = true
		}
		if stopPC >= 0 && pc == stopPC {
			break
		}
	}

	// Flush the register-resident cycle state back to the machine so any
	// observer sees exactly the state the interpreter would have produced.
	m.pc = pc
	m.stamp = stamp
	m.halted = halted
	m.stats.Cycles += cycles
	m.stats.SlotsTotal += cycles * int64(m.buses)
	m.stats.SlotsEncoded += encoded
	m.stats.MovesExecuted += moved
	c.active = active
	if retErr != nil {
		m.uncount(pc, stamp)
		// A mid-cycle abort may have clocked some units of an uncounted
		// cycle; discard the idle cache rather than reason about the
		// partial state.
		c.dirty = true
	}
	return cycles, retErr
}

// clock runs one cycle's Clock walk over the active units in
// declaration order and returns the mask for the next cycle: a unit
// that reports settled parks, and a write-driven unit settles at every
// Clock. On a unit fault it returns the error with the pc (the mask is
// then moot: the failed cycle leaves the idle cache dirty).
func (c *fastPath) clock(active uint64, pc int, now int64) (uint64, error) {
	for a := active; a != 0; a &= a - 1 {
		ui := mathbits.TrailingZeros64(a)
		s := &c.slots[ui]
		if err := s.u.Clock(now); err != nil {
			return active, fmt.Errorf("tta: pc %d: unit %s: %w", pc, s.u.Ports().Name, err)
		}
		if s.settled != nil && s.settled() {
			active &^= 1 << uint(ui)
		}
	}
	return active &^ c.onWrite, nil
}

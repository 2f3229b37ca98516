package tta

import (
	"errors"
	"fmt"
	mathbits "math/bits"

	"taco/internal/isa"
	"taco/internal/obs"
)

// This file implements the compiled fast path: for a fixed machine
// instance and loaded program, UseCompiled pre-lowers the move schedule
// into flat per-pc move records — guards resolved to the flags and
// getters of the units' port tables, sources and destinations to their
// registers and (value, armed) latches, immediates inlined, error cases
// pre-rendered — so the steady-state
// step loop touches no maps, no socket tables and no per-move
// validation. The compiled step is required to be bit-identical to the
// interpreter's: same cycle counts, same halt behavior, same errors
// (byte-for-byte message text), same observable socket/FU/stats state
// after every cycle. The lockstep tests in edge_test.go, the
// root-level TestCompiledVsInterpreted and FuzzCompiledVsInterpreted
// enforce that contract.

// Destination op codes for a compiled move. Error ops reproduce the
// interpreter's runtime failures for programs that pass Load validation
// (which checks structure, not socket kinds) but fault when executed.
const (
	opWrite     uint8 = iota // latch into an Operand or Register socket
	opTrigger                // latch into a Trigger socket
	opJump                   // nc.jmp: next PC = moved value
	opHalt                   // nc.halt: stop after this cycle
	opDstErr                 // destination socket out of range
	opResultErr              // write to a Result socket
)

// cterm is one pre-resolved guard term. A term referencing an unknown
// signal is lowered with bad set; it faults only when guard evaluation
// reaches it, exactly like the interpreter (an earlier failing term
// short-circuits without error), so lowering stops at the bad term.
type cterm struct {
	// flag is the bool backing the signal, or nil when get derives it.
	flag   *bool
	get    func() bool
	negate bool
	bad    bool
}

// cmoveErrs collects a move's pre-rendered failure messages (pc and bus
// are static per move, so the whole text is known at compile time). The
// pointer is nil for moves that cannot fail, keeping the hot cmove
// record small.
type cmoveErrs struct {
	guardErr string // a guard term references an unknown signal
	srcErr   string // unreadable source (bad id, controller, write-only)
	dstErr   string // opDstErr / opResultErr text
	conflict string // conflicting writes within this instruction
	retrig   string // unit triggered twice in one cycle
}

// Move flag bits. A move with flags == 0 is the steady-state common
// case — unguarded, source read from a socket, destination a plain unit
// write with no hazard to check — and executes through a branch-free
// fast path. fImm alone is the same with an inlined immediate. Any
// other bit routes the move through the general path.
const (
	fImm     uint8 = 1 << iota // source is an immediate
	fGuarded                   // move has guard terms
	fSrcBad                    // source read faults when executed
	fCheckWr                   // destination shared within the instruction
	fCheckTr                   // trigger unit shared within the instruction
	fCtl                       // destination is the controller or an error op
)

// cmove is one pre-lowered move. Field order is deliberate: the first
// group — the port-table storage plus flags — is everything the
// steady-state fast paths touch, packed so a typical move costs a
// single cache line; the trailing group is only read on getter and
// error paths.
type cmove struct {
	// Port-table storage: srcReg is the source socket's register (nil
	// when srcGet derives it); dstVal/dstArmed are the destination's
	// (value, armed) latch. Latch writes are invisible until Clock, so
	// the store goes straight in on instructions where the interpreter's
	// deferred buffer cannot matter (cins.direct). flag0/neg0 inline a
	// single-term guard on a flag — the dominant guard shape — avoiding
	// the guard slice entirely.
	srcReg   *uint32
	dstVal   *uint32
	dstArmed *bool
	flag0    *bool

	immVal  uint32
	unitIdx int32 // destination unit index (active-mask bookkeeping)
	flags   uint8
	op      uint8
	neg0    bool

	// Getter and error-path fields.
	guard   []cterm
	srcGet  func() uint32
	errs    *cmoveErrs
	sockIdx int32 // destination SocketID-1 (conflict stamp index)
	// Flight-recorder codes, valid for every move (including ones whose
	// source or destination is invalid): recSrc is -1 for immediates
	// else the raw source SocketID, recDst the raw destination SocketID
	// — exactly what the interpreter records.
	recSrc int32
	recDst int32
}

// cins is one pre-lowered instruction: its moves are c.moves[start:end]
// (one flat array for the whole program, so stepping an instruction is
// a contiguous scan, not a per-pc slice chase).
type cins struct {
	start, end int32
	n          int64 // encoded move count (SlotsEncoded per cycle)
	// direct: no move of this instruction can raise a move-level error,
	// so unit writes may be applied immediately instead of through the
	// deferred buffer — the buffer exists only so a mid-cycle error
	// leaves unit latches exactly as the interpreter would, and written
	// latches are invisible until Clock anyway.
	direct bool
}

// cwrite is a deferred unit write, committed after the move loop so a
// mid-cycle error leaves unit latches exactly as the interpreter would.
type cwrite struct {
	mv  *cmove
	val uint32
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
	// moves backs every instruction's [start:end) window (see cins).
	moves []cmove

	// writes is the deferred-writes buffer, sized at install for the
	// widest instruction: append never grows it, so the step loop never
	// stores its header back.
	writes []cwrite

	// Clock-skipping state. A unit is "active" — its Clock must run this
	// cycle — unless its clocking promise let it settle at its last Clock
	// and none of its sockets have been written since; ClockEvery units
	// are permanently active. Activity is a bitmask with one bit per unit
	// (hence the 64-unit limit), iterated lowest-bit-first to preserve
	// the interpreter's declaration-order clocking. onWrite holds the
	// ClockOnWrite units' bits: they settle at every Clock.
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
// loaded program is pre-lowered once, and from then on Step, Run,
// RunStepped and RunToPC execute through the lowered records, bit for
// bit as the interpreter would — execution count and recorder events
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
	// One flat move array for the whole program, sized up front: each
	// instruction lowers straight into its window.
	c.moves = make([]cmove, m.prog.MoveCount())
	start, widest := 0, 0
	for pc, in := range m.prog.Ins {
		c.ins[pc] = c.lowerInstruction(pc, in, start)
		start += len(in.Moves)
		widest = max(widest, len(in.Moves))
	}
	c.writes = make([]cwrite, 0, widest)
	m.fast = c
	return nil
}

// Compiled reports whether the machine runs on the compiled fast path.
func (m *Machine) Compiled() bool { return m.fast != nil }

// failure returns the move's error texts, allocating them on the first
// failure: moves that cannot fail keep errs nil (see cmoveErrs).
func (cm *cmove) failure() *cmoveErrs {
	if cm.errs == nil {
		cm.errs = &cmoveErrs{}
	}
	return cm.errs
}

// destRef resolves a move destination, nil when it is out of range.
func (m *Machine) destRef(dst isa.SocketID) *socketRef {
	if dst == isa.InvalidSocket || int(dst) > len(m.sockets) {
		return nil
	}
	return &m.sockets[dst-1]
}

// hazards reports whether another move of in writes the same socket as
// move i (wr) or triggers the same unit (tr). Guards are ignored —
// whether both actually execute is decided at runtime, exactly as the
// interpreter does with its stamp arrays — so only these moves need a
// runtime conflicting-write (or double-trigger) check. An instruction
// holds at most one move per bus, so the scan is a few compares.
func (m *Machine) hazards(in isa.Instruction, i int) (wr, tr bool) {
	ref := m.destRef(in.Moves[i].Dst)
	trig := ref.unit >= 0 && ref.kind == Trigger
	for k, mv := range in.Moves {
		other := m.destRef(mv.Dst)
		if k == i || other == nil {
			continue
		}
		wr = wr || mv.Dst == in.Moves[i].Dst
		tr = tr || trig && other.unit == ref.unit && other.kind == Trigger
	}
	return wr, tr
}

// lowerInstruction lowers in into c.moves[start:start+len(in.Moves)].
func (c *fastPath) lowerInstruction(pc int, in isa.Instruction, start int) cins {
	m := c.m
	moves := c.moves[start : start+len(in.Moves)]
	for bus, mv := range in.Moves {
		cm := &moves[bus]
		*cm = cmove{recSrc: recSrcCode(mv.Src), recDst: int32(mv.Dst)}
		if len(mv.Guard.Terms) > 0 {
			cm.flags |= fGuarded
		}
		for _, t := range mv.Guard.Terms {
			if int(t.Signal) >= len(m.signals) {
				// The interpreter evaluates terms in order and faults on
				// reaching an unknown signal; terms after it are never
				// evaluated, so lowering stops here too.
				cm.failure().guardErr = fmt.Sprintf(
					"tta: pc %d bus %d: tta: guard references unknown signal %d", pc, bus, t.Signal)
				cm.guard = append(cm.guard, cterm{bad: true})
				break
			}
			ref := &m.signals[t.Signal]
			term := cterm{flag: ref.flag, get: ref.get, negate: t.Negate}
			if len(mv.Guard.Terms) == 1 && term.flag != nil {
				// Single resolved term: the hot loop tests the flag inline
				// and never needs a guard slice.
				cm.flag0, cm.neg0 = term.flag, term.negate
				break
			}
			cm.guard = append(cm.guard, term)
		}
		switch {
		case mv.Src.Imm:
			cm.flags |= fImm
			cm.immVal = mv.Src.Value
		case mv.Src.Socket == isa.InvalidSocket || int(mv.Src.Socket) > len(m.sockets):
			cm.flags |= fSrcBad
			cm.failure().srcErr = fmt.Sprintf("tta: pc %d bus %d: bad source socket %d", pc, bus, mv.Src.Socket)
		default:
			ref := &m.sockets[mv.Src.Socket-1]
			switch {
			case ref.unit < 0:
				cm.flags |= fSrcBad
				cm.failure().srcErr = fmt.Sprintf("tta: pc %d bus %d: controller socket %s is not readable",
					pc, bus, ref.name)
			case ref.kind != Result && ref.kind != Register:
				cm.flags |= fSrcBad
				cm.failure().srcErr = fmt.Sprintf("tta: pc %d bus %d: socket %s (%v) is not readable",
					pc, bus, ref.name, ref.kind)
			default:
				cm.srcReg, cm.srcGet = ref.reg, ref.get
			}
		}
		ref := m.destRef(mv.Dst)
		if ref == nil {
			cm.op = opDstErr
			cm.flags |= fCtl
			cm.failure().dstErr = fmt.Sprintf("tta: pc %d bus %d: bad destination socket %d", pc, bus, mv.Dst)
			continue
		}
		cm.sockIdx = int32(mv.Dst - 1)
		checkWr, checkTr := m.hazards(in, bus)
		if checkWr {
			cm.flags |= fCheckWr
			cm.failure().conflict = fmt.Sprintf("tta: pc %d: conflicting writes to %s", pc, ref.name)
		}
		switch {
		case ref.unit < 0:
			cm.flags |= fCtl
			if ref.ctl == ctlJump {
				cm.op = opJump
			} else {
				cm.op = opHalt
			}
		case ref.kind == Result:
			cm.op = opResultErr
			cm.flags |= fCtl
			cm.failure().dstErr = fmt.Sprintf("tta: pc %d: write to result socket %s", pc, ref.name)
		case ref.kind == Trigger:
			cm.op = opTrigger
			cm.dstVal, cm.dstArmed, cm.unitIdx = ref.val, ref.armed, int32(ref.unit)
			if checkTr {
				cm.flags |= fCheckTr
				cm.failure().retrig = fmt.Sprintf("tta: pc %d: unit %s triggered twice in one cycle",
					pc, m.units[ref.unit].Ports().Name)
			}
		default: // Operand or Register
			cm.op = opWrite
			cm.dstVal, cm.dstArmed, cm.unitIdx = ref.val, ref.armed, int32(ref.unit)
		}
	}
	// An instruction whose moves can raise no move-level error may apply
	// unit writes immediately (see cins.direct). Conflict checks, bad
	// guards/sources/destinations and result writes all disqualify;
	// controller moves (jump, halt) are fine — they touch no unit.
	direct := true
	for i := range moves {
		if moves[i].errs != nil {
			direct = false
			break
		}
	}
	return cins{start: int32(start), end: int32(start + len(moves)), n: int64(len(in.Moves)), direct: direct}
}

// runToPC is Machine.RunToPC on the fast path. Per-cycle bookkeeping
// (statistics, pc, the cycle stamp) lives in locals and is flushed to
// the machine on every exit path, so observable state is bit-identical
// to stepping the interpreter the same number of cycles — while the
// tight loop itself touches almost no shared memory.
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
	pc := m.pc
	stamp := m.stamp
	halted := m.halted
	jumped := m.jumped
	var cycles, encoded, moved int64
	var retErr error
	ins := c.ins
	allMoves := c.moves
	active := c.active
	onWrite := c.onWrite
	slots := c.slots
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
		if pc < 0 || pc >= len(ins) {
			halted = true
			break
		}
		stamp++
		if stamp == 0 {
			clear(m.trigStamp)
			clear(m.wrStamp)
			clear(m.sqStamp)
			stamp = 1
		}
		if rec != nil {
			rec.SetCycle(statsBase + cycles)
		}
		nextPC := pc + 1
		jumped = false
		haltReq := false

		ci := &ins[pc]
		direct := ci.direct
		// Only an instruction that is not direct defers its writes.
		var writes []cwrite
		if !direct {
			writes = c.writes[:0]
		}
		for mi := ci.start; mi < ci.end; mi++ {
			mv := &allMoves[mi]
			// Fast paths: hazard-free unit writes, at most one inlined
			// guard term — the whole steady state of a scheduled program.
			fl := mv.flags
			if fl&fGuarded != 0 && mv.flag0 != nil {
				if *mv.flag0 == mv.neg0 {
					squashed[mi]++
					sqStamp[mi] = stamp
					if rec != nil {
						rec.Record(obs.RecEvent{Kind: obs.EvGuardFalse, PC: int32(pc),
							Bus: int16(mi - ci.start), Src: mv.recSrc, Dst: mv.recDst})
					}
					continue // guard failed: move not executed
				}
				fl &^= fGuarded
			}
			if fl == 0 {
				var val uint32
				if mv.srcReg != nil {
					val = *mv.srcReg
				} else {
					val = mv.srcGet()
				}
				if rec != nil {
					k := obs.EvMove
					if mv.op == opTrigger {
						k = obs.EvTrigger
					}
					rec.Record(obs.RecEvent{Kind: k, PC: int32(pc), Bus: int16(mi - ci.start),
						Src: mv.recSrc, Dst: mv.recDst, Value: val})
				}
				if direct {
					*mv.dstVal, *mv.dstArmed = val, true
					active |= 1 << uint(mv.unitIdx)
				} else {
					writes = append(writes, cwrite{mv: mv, val: val})
				}
				moved++
				continue
			}
			if fl == fImm {
				if rec != nil {
					k := obs.EvMove
					if mv.op == opTrigger {
						k = obs.EvTrigger
					}
					rec.Record(obs.RecEvent{Kind: k, PC: int32(pc), Bus: int16(mi - ci.start),
						Src: -1, Dst: mv.recDst, Value: mv.immVal})
				}
				if direct {
					*mv.dstVal, *mv.dstArmed = mv.immVal, true
					active |= 1 << uint(mv.unitIdx)
				} else {
					writes = append(writes, cwrite{mv: mv, val: mv.immVal})
				}
				moved++
				continue
			}
			if fl&fGuarded != 0 {
				executed := true
				for ti := range mv.guard {
					t := &mv.guard[ti]
					if t.bad {
						retErr = errors.New(mv.errs.guardErr)
						break loop
					}
					var sig bool
					if t.flag != nil {
						sig = *t.flag
					} else {
						sig = t.get()
					}
					if sig == t.negate {
						executed = false
						break
					}
				}
				if !executed {
					squashed[mi]++
					sqStamp[mi] = stamp
					if rec != nil {
						rec.Record(obs.RecEvent{Kind: obs.EvGuardFalse, PC: int32(pc),
							Bus: int16(mi - ci.start), Src: mv.recSrc, Dst: mv.recDst})
					}
					continue
				}
			}
			if mv.flags&fSrcBad != 0 {
				retErr = errors.New(mv.errs.srcErr)
				break loop
			}
			val := mv.immVal
			if mv.flags&fImm == 0 {
				if mv.srcReg != nil {
					val = *mv.srcReg
				} else {
					val = mv.srcGet()
				}
			}
			if mv.op == opDstErr {
				retErr = errors.New(mv.errs.dstErr)
				break loop
			}
			if mv.flags&fCheckWr != 0 {
				if m.wrStamp[mv.sockIdx] == stamp {
					retErr = errors.New(mv.errs.conflict)
					break loop
				}
				m.wrStamp[mv.sockIdx] = stamp
			}
			switch mv.op {
			case opWrite, opTrigger:
				if mv.flags&fCheckTr != 0 {
					if m.trigStamp[mv.unitIdx] == stamp {
						retErr = errors.New(mv.errs.retrig)
						break loop
					}
					m.trigStamp[mv.unitIdx] = stamp
				}
				if rec != nil {
					k := obs.EvMove
					if mv.op == opTrigger {
						k = obs.EvTrigger
					}
					rec.Record(obs.RecEvent{Kind: k, PC: int32(pc), Bus: int16(mi - ci.start),
						Src: mv.recSrc, Dst: mv.recDst, Value: val})
				}
				if direct {
					*mv.dstVal, *mv.dstArmed = val, true
					active |= 1 << uint(mv.unitIdx)
				} else {
					writes = append(writes, cwrite{mv: mv, val: val})
				}
			case opJump:
				nextPC = int(val)
				jumped = true
				if rec != nil {
					rec.Record(obs.RecEvent{Kind: obs.EvJump, PC: int32(pc), Bus: int16(mi - ci.start),
						Src: mv.recSrc, Dst: mv.recDst, Value: val})
				}
			case opHalt:
				haltReq = true
				if rec != nil {
					rec.Record(obs.RecEvent{Kind: obs.EvHalt, PC: int32(pc), Bus: int16(mi - ci.start),
						Src: mv.recSrc, Dst: mv.recDst, Value: val})
				}
			case opResultErr:
				retErr = errors.New(mv.errs.dstErr)
				break loop
			}
			moved++
		}
		for wi := range writes {
			w := &writes[wi]
			*w.mv.dstVal, *w.mv.dstArmed = w.val, true
			active |= 1 << uint(w.mv.unitIdx)
		}
		for a := active; a != 0; a &= a - 1 {
			ui := mathbits.TrailingZeros64(a)
			s := &slots[ui]
			if err := s.u.Clock(statsBase + cycles); err != nil {
				retErr = fmt.Errorf("tta: pc %d: unit %s: %w", pc, s.u.Ports().Name, err)
				break loop
			}
			if s.settled != nil && s.settled() {
				active &^= 1 << uint(ui)
			}
		}
		// A write-driven unit settles at every Clock (an error above
		// leaves the mask dirty, so the partial loop needs no care).
		active &^= onWrite

		cycles++
		encoded += ci.n
		issued[pc]++
		if haltReq {
			halted = true
		}
		pc = nextPC
		if pc < 0 || pc >= len(ins) {
			halted = true
		}
		if stopPC >= 0 && pc == stopPC {
			break
		}
	}

	// Flush the register-resident cycle state back to the machine so any
	// observer sees exactly the state the interpreter would have produced.
	m.pc = pc
	m.nextPC = pc
	m.jumped = jumped
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

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
// into flat per-move records — guards resolved to the flags and getters
// of the units' port tables, sources and destinations to their registers
// and (value, armed) latches, immediates inlined, error cases
// pre-rendered — so the step loop touches no maps, no socket tables and
// no per-move validation. Each move is two records at its flat index:
// the hot cmove, all a lean instruction reads, and the cold ccold, read
// by general and the flight recorder. A lean instruction is direct,
// every source a register or an immediate, every guard absent or one
// inlined flag, every destination a unit write, a trigger or nc.jmp: the
// cycle loop runs its moves from the hot records alone. Every other
// instruction's moves go through general, which mirrors the interpreter
// check by check. The compiled step is required to be bit-identical to the interpreter's:
// same cycle counts, same halt behavior, same errors (byte-for-byte
// message text), same observable socket/FU/stats state after every
// cycle. The lockstep tests in edge_test.go, the root-level
// TestCompiledVsInterpreted and FuzzCompiledVsInterpreted enforce that
// contract.

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

// recKind is the flight-recorder event of an executed move, by op.
var recKind = [...]uint8{opWrite: obs.EvMove, opTrigger: obs.EvTrigger, opJump: obs.EvJump, opHalt: obs.EvHalt}

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
// pointer is nil for moves that cannot fail.
type cmoveErrs struct {
	guardErr string // a guard term references an unknown signal
	srcErr   string // unreadable source (bad id, controller, write-only)
	dstErr   string // opDstErr / opResultErr text
	conflict string // conflicting writes within this instruction
	retrig   string // unit triggered twice in one cycle
}

// Cold move flag bits: the checks general makes at run time.
const (
	fSrcBad  uint8 = 1 << iota // source read faults when executed
	fCheckWr                   // destination shared within the instruction
	fCheckTr                   // trigger unit shared within the instruction
)

// cmove is the hot half of a pre-lowered move: everything a lean
// instruction reads, in one 48-byte record.
type cmove struct {
	// src is the register the move reads — the source socket's, or imm
	// for an immediate — and nil when the cold record's getter derives
	// the source or it is unreadable.
	src *uint32
	// val/armed are the destination's (value, armed) latch, nil for the
	// controller. Latch writes are invisible until Clock, so the store
	// goes straight in on instructions where the interpreter's deferred
	// buffer cannot matter (cins.direct).
	val   *uint32
	armed *bool
	// flag/neg inline a single-term guard on a flag, the dominant guard
	// shape; flag is nil when the move is unguarded or the cold record
	// holds its guard.
	flag *bool
	// act is the bit the move's write sets in the active-unit mask: its
	// unit's, or 0 when the write needs no Clock of its own — a write to
	// an Operand socket of a ClockOnWrite unit, which the unit's next
	// Clock commits before any trigger reads it.
	act  uint64
	imm  uint32
	neg  bool
	jump bool // destination is nc.jmp
}

// ccold is the cold half of a pre-lowered move.
type ccold struct {
	guard  []cterm       // a guard the hot record cannot inline
	srcGet func() uint32 // derived source (hot src nil)
	errs   *cmoveErrs
	// Flight-recorder codes, valid for every move (including ones whose
	// source or destination is invalid): recSrc is -1 for immediates
	// else the raw source SocketID, recDst the raw destination SocketID
	// — exactly what the interpreter records. recDst-1 indexes wrStamp.
	recSrc, recDst int32
	op, flags      uint8
}

// cins is one pre-lowered instruction: its moves are [start, end) of the
// flat move arrays (one for the whole program, so stepping an
// instruction is a contiguous scan, not a per-pc slice chase).
type cins struct {
	start, end int32
	// direct: no move of this instruction can raise a move-level error,
	// so unit writes may be applied immediately instead of through the
	// deferred buffer — the buffer exists only so a mid-cycle error
	// leaves unit latches exactly as the interpreter would, and written
	// latches are invisible until Clock anyway.
	direct bool
	lean   bool // see the file comment
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
	// moves and cold back every instruction's [start:end) window.
	moves []cmove
	cold  []ccold

	// writes is the deferred-writes buffer, sized at install for the
	// widest instruction: append never grows it, so the step loop never
	// stores its header back.
	writes []cwrite

	// Clock-skipping state. A unit is "active" — its Clock must run this
	// cycle — unless its clocking promise let it settle at its last Clock
	// and nothing has been written since that needs a Clock (see
	// cmove.act); ClockEvery units are permanently active. Activity is a
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
	// One flat pair of move arrays for the whole program, sized up
	// front: each instruction lowers straight into its window.
	c.moves = make([]cmove, m.prog.MoveCount())
	c.cold = make([]ccold, len(c.moves))
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
func (cc *ccold) failure() *cmoveErrs {
	if cc.errs == nil {
		cc.errs = &cmoveErrs{}
	}
	return cc.errs
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

// lowerInstruction lowers in into the move windows [start, start+len).
func (c *fastPath) lowerInstruction(pc int, in isa.Instruction, start int) cins {
	m := c.m
	ci := cins{start: int32(start), end: int32(start + len(in.Moves)), direct: true, lean: true}
	for bus, mv := range in.Moves {
		cm, cc := &c.moves[start+bus], &c.cold[start+bus]
		*cc = ccold{recSrc: recSrcCode(mv.Src), recDst: int32(mv.Dst)}
		for _, t := range mv.Guard.Terms {
			if int(t.Signal) >= len(m.signals) {
				// The interpreter evaluates terms in order and faults on
				// reaching an unknown signal; terms after it are never
				// evaluated, so lowering stops here too.
				cc.failure().guardErr = fmt.Sprintf(
					"tta: pc %d bus %d: tta: guard references unknown signal %d", pc, bus, t.Signal)
				cc.guard = append(cc.guard, cterm{bad: true})
				break
			}
			ref := &m.signals[t.Signal]
			term := cterm{flag: ref.flag, get: ref.get, negate: t.Negate}
			if len(mv.Guard.Terms) == 1 && term.flag != nil {
				// Single resolved term: the hot record tests the flag
				// inline and never needs a guard slice.
				cm.flag, cm.neg = term.flag, term.negate
				break
			}
			cc.guard = append(cc.guard, term)
		}
		switch {
		case mv.Src.Imm:
			cm.imm = mv.Src.Value
			cm.src = &cm.imm
		case mv.Src.Socket == isa.InvalidSocket || int(mv.Src.Socket) > len(m.sockets):
			cc.flags |= fSrcBad
			cc.failure().srcErr = fmt.Sprintf("tta: pc %d bus %d: bad source socket %d", pc, bus, mv.Src.Socket)
		default:
			ref := &m.sockets[mv.Src.Socket-1]
			switch {
			case ref.unit < 0:
				cc.flags |= fSrcBad
				cc.failure().srcErr = fmt.Sprintf("tta: pc %d bus %d: controller socket %s is not readable",
					pc, bus, ref.name)
			case ref.kind != Result && ref.kind != Register:
				cc.flags |= fSrcBad
				cc.failure().srcErr = fmt.Sprintf("tta: pc %d bus %d: socket %s (%v) is not readable",
					pc, bus, ref.name, ref.kind)
			default:
				cm.src, cc.srcGet = ref.reg, ref.get
			}
		}
		ci.lean = ci.lean && cc.guard == nil && cm.src != nil
		ref := m.destRef(mv.Dst)
		if ref == nil {
			cc.op = opDstErr
			cc.failure().dstErr = fmt.Sprintf("tta: pc %d bus %d: bad destination socket %d", pc, bus, mv.Dst)
			continue
		}
		checkWr, checkTr := m.hazards(in, bus)
		if checkWr {
			cc.flags |= fCheckWr
			cc.failure().conflict = fmt.Sprintf("tta: pc %d: conflicting writes to %s", pc, ref.name)
		}
		switch {
		case ref.unit < 0 && ref.ctl == ctlJump:
			cc.op, cm.jump = opJump, true
		case ref.unit < 0:
			cc.op, ci.lean = opHalt, false
		case ref.kind == Result:
			cc.op = opResultErr
			cc.failure().dstErr = fmt.Sprintf("tta: pc %d: write to result socket %s", pc, ref.name)
		default:
			cc.op = opWrite
			cm.val, cm.armed = ref.val, ref.armed
			if ref.kind != Operand || c.onWrite&(1<<uint(ref.unit)) == 0 {
				cm.act = 1 << uint(ref.unit)
			}
			if ref.kind == Trigger {
				cc.op = opTrigger
			}
			if checkTr {
				cc.flags |= fCheckTr
				cc.failure().retrig = fmt.Sprintf("tta: pc %d: unit %s triggered twice in one cycle",
					pc, m.units[ref.unit].Ports().Name)
			}
		}
	}
	// An instruction whose moves can raise no move-level error may apply
	// unit writes immediately (see cins.direct). Conflict checks, bad
	// guards/sources/destinations and result writes all disqualify;
	// controller moves (jump, halt) are fine — they touch no unit.
	for _, cc := range c.cold[ci.start:ci.end] {
		ci.direct = ci.direct && cc.errs == nil
	}
	ci.lean = ci.lean && ci.direct
	return ci
}

// runToPC is Machine.RunToPC on the fast path. Per-cycle bookkeeping
// (statistics, pc, the cycle stamp) lives in locals and is flushed to
// the machine on every exit path, so observable state is bit-identical
// to stepping the interpreter the same number of cycles — while the
// tight loop itself touches almost no shared memory. Consecutive lean
// instructions run in the inner loop, which stops at the first one that
// is not lean; that one's moves go through general, in the same cycle
// steps around them.
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
	pc, stamp, halted, jumped := m.pc, m.stamp, m.halted, m.jumped
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
		// The lean loop. It leaves the batch where the general cycle below
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
			jumped = false
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
					rec.Record(obs.RecEvent{Kind: recKind[cc.op], PC: int32(pc), Bus: int16(bus),
						Src: cc.recSrc, Dst: cc.recDst, Value: v})
				}
				if mv.jump {
					nextPC, jumped = int(v), true
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
		var n int64
		var nextPC int
		var haltReq bool
		active, n, nextPC, jumped, haltReq, retErr = c.general(ci, pc, stamp, active)
		if moved += n; retErr != nil {
			break
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

// general executes the moves of an instruction that is not lean, making
// every check the interpreter makes in its order, and returns the
// updated active mask, the executed-move count and the cycle's control
// flow. Only an instruction that is not direct defers its writes.
func (c *fastPath) general(ci *cins, pc int, stamp uint32, active uint64) (
	_ uint64, moved int64, nextPC int, jumped, halt bool, err error) {
	m, rec := c.m, c.m.Recorder
	nextPC = pc + 1
	writes := c.writes[:0]
	for mi := ci.start; mi < ci.end; mi++ {
		mv, cc := &c.moves[mi], &c.cold[mi]
		bus := mi - ci.start
		executed := mv.flag == nil || *mv.flag != mv.neg
		for ti := 0; executed && ti < len(cc.guard); ti++ {
			t := &cc.guard[ti]
			if t.bad {
				return active, moved, nextPC, jumped, halt, errors.New(cc.errs.guardErr)
			}
			if t.flag != nil {
				executed = *t.flag != t.negate
			} else {
				executed = t.get() != t.negate
			}
		}
		if !executed {
			m.squashed[mi]++
			m.sqStamp[mi] = stamp
			if rec != nil {
				rec.Record(obs.RecEvent{Kind: obs.EvGuardFalse, PC: int32(pc), Bus: int16(bus),
					Src: cc.recSrc, Dst: cc.recDst})
			}
			continue
		}
		if cc.flags&fSrcBad != 0 {
			return active, moved, nextPC, jumped, halt, errors.New(cc.errs.srcErr)
		}
		var val uint32
		if mv.src != nil {
			val = *mv.src
		} else {
			val = cc.srcGet()
		}
		switch cc.op {
		case opDstErr, opResultErr:
			return active, moved, nextPC, jumped, halt, errors.New(cc.errs.dstErr)
		}
		if cc.flags&fCheckWr != 0 {
			if m.wrStamp[cc.recDst-1] == stamp {
				return active, moved, nextPC, jumped, halt, errors.New(cc.errs.conflict)
			}
			m.wrStamp[cc.recDst-1] = stamp
		}
		if cc.flags&fCheckTr != 0 {
			ui := mathbits.TrailingZeros64(mv.act) // a trigger always activates its unit
			if m.trigStamp[ui] == stamp {
				return active, moved, nextPC, jumped, halt, errors.New(cc.errs.retrig)
			}
			m.trigStamp[ui] = stamp
		}
		if rec != nil {
			rec.Record(obs.RecEvent{Kind: recKind[cc.op], PC: int32(pc), Bus: int16(bus),
				Src: cc.recSrc, Dst: cc.recDst, Value: val})
		}
		switch {
		case cc.op == opJump:
			nextPC, jumped = int(val), true
		case cc.op == opHalt:
			halt = true
		case ci.direct:
			*mv.val, *mv.armed = val, true
			active |= mv.act
		default:
			writes = append(writes, cwrite{mv: mv, val: val})
		}
		moved++
	}
	for _, w := range writes {
		*w.mv.val, *w.mv.armed = w.val, true
		active |= w.mv.act
	}
	return active, moved, nextPC, jumped, halt, nil
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

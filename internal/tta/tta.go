// Package tta implements the transport-triggered processor model used by
// TACO: functional units connected by an interconnection network of data
// buses, controlled by an interconnection network controller.
//
// The machine executes one instruction per clock cycle; an instruction
// carries at most one move per bus. Moving data into a trigger socket
// starts the unit's operation, whose results (and 1-bit signals into the
// network controller) become visible at the start of the next cycle —
// every TACO functional unit completes in one clock cycle (paper §1).
package tta

import (
	"errors"
	"fmt"
	"slices"

	"taco/internal/isa"
	"taco/internal/obs"
)

// SocketKind classifies a functional-unit socket.
type SocketKind int

const (
	// Operand sockets are write-only inputs that do not trigger the unit.
	Operand SocketKind = iota
	// Trigger sockets are write-only inputs that launch the unit's
	// operation this cycle.
	Trigger
	// Result sockets are read-only outputs.
	Result
	// Register sockets are both readable and writable (general-purpose
	// registers); a write becomes visible at the next cycle.
	Register
)

func (k SocketKind) String() string {
	switch k {
	case Operand:
		return "operand"
	case Trigger:
		return "trigger"
	case Result:
		return "result"
	case Register:
		return "register"
	}
	return fmt.Sprintf("SocketKind(%d)", int(k))
}

// SocketSpec describes one socket a unit exposes. Name is local to the
// unit ("add", "r3"); the machine prefixes it with the unit name.
type SocketSpec struct {
	Name string
	Kind SocketKind
}

// Port is one socket of a unit's port table: its spec and the storage
// behind it. A writable socket (Operand, Trigger, Register) names the
// (value, armed) pair of its latch or trigger, so every write is
// {*Val = v; *Armed = true} and stays invisible to reads and signals
// until the unit's next Clock. A readable socket (Result, Register) names
// the register a move reads, Reg, or — when the value is derived from
// other state on demand — a Get func; exactly one of the two.
type Port struct {
	SocketSpec
	Reg   *uint32
	Get   func() uint32
	Val   *uint32
	Armed *bool
}

// Line is one 1-bit signal into the network controller: the Flag behind
// it, or a Get func when it is derived on demand; exactly one of the two.
type Line struct {
	Name string
	Flag *bool
	Get  func() bool
}

// Clocking is a unit's promise about the cycles in which none of its
// sockets is written. The compiled fast path uses it to skip those
// Clock calls; the interpreter clocks every unit every cycle.
type Clocking uint8

const (
	// ClockEvery promises nothing: the unit is clocked every cycle.
	ClockEvery Clocking = iota
	// ClockOnWrite marks a purely write-driven unit: a Clock with no
	// socket written since the previous Clock is always a no-op, and one
	// after writes to Operand sockets alone only commits them. Operand
	// sockets are write-only, and the unit's Clock commits its operand
	// latches before a trigger reads them, so the fast path clocks such
	// a unit only for a write to a Trigger or Register socket and leaves
	// operand writes for that Clock to commit. A unit with a flag or
	// result that follows an operand (the counter's done follows stop)
	// makes another promise.
	ClockOnWrite
	// ClockSettled promises the same whenever PortTable.Settled reports
	// true; units with autonomous per-cycle work (the counter while
	// counting, the CAM while a search is in flight) report false then.
	// Settled may also turn false between runs, when input arrives from
	// outside the machine (a line card delivery): the fast path asks
	// every parked ClockSettled unit again at the start of each batch.
	ClockSettled
)

// PortTable is a unit's whole contract with the interconnect, declared
// once in the unit's constructor: its sockets and signal lines with the
// storage behind each, its clocking promise and its hazard class. Socket
// and line order is the unit's local numbering and, with unit order,
// fixes every SocketID and SignalID. New resolves the table once, so the
// storage it names must stay put for the unit's lifetime: a Reset resets
// the fields around it and a unit must not be copied.
type PortTable struct {
	Name    string
	Sockets []Port
	Lines   []Line
	// Clocking is the unit's idle-cycle promise; Settled backs
	// ClockSettled (nil otherwise).
	Clocking Clocking
	Settled  func() bool
	// Hazard names an out-of-band resource the unit shares with others
	// (the data memory the DMA units reach behind the MMU's back); ""
	// means none. The scheduler keeps triggers within one class in
	// program order.
	Hazard string
}

// Ports returns the table itself, so a unit embedding its PortTable
// answers Unit.Ports.
func (p *PortTable) Ports() *PortTable { return p }

// Unit is a TACO functional unit: its port table plus a clock. The
// machine drives it with the following per-cycle protocol:
//
//  1. moves read Result/Register sockets (observing the state latched
//     at the end of the previous cycle),
//  2. moves write Operand/Trigger/Register sockets into their (value,
//     armed) storage,
//  3. the machine calls Clock once, at which point the unit commits
//     pending writes and, if a trigger socket was written, computes its
//     operation into its result registers and signal lines.
//
// The machine owns time: Clock is told the cycle it executes, so a unit
// that timestamps events (the DMA units) keeps no counter of its own.
type Unit interface {
	// Ports returns the unit's port table.
	Ports() *PortTable
	// Clock advances the unit one cycle, committing writes and executing
	// a triggered operation. now is the cycle being executed
	// (Stats().Cycles before it completes). It returns an error for
	// unit-level faults (e.g. an out-of-range memory access), which halt
	// the machine.
	Clock(now int64) error
	// Reset returns the unit to its power-on state.
	Reset()
}

// Controller socket names. The interconnection network controller
// exposes destinations for control flow; they belong to pseudo-unit "nc".
const (
	ncJump = "nc.jmp"  // write: next PC = value
	ncHalt = "nc.halt" // write: stop the machine after this cycle
)

// socketRef resolves a SocketID to its unit and the storage its port
// table names (nil for controller sockets).
type socketRef struct {
	unit  int // -1 for controller sockets
	kind  SocketKind
	name  string
	ctl   int // controller socket code when unit == -1
	reg   *uint32
	get   func() uint32
	val   *uint32
	armed *bool
}

// read returns a readable socket's visible value.
func (r *socketRef) read() uint32 {
	if r.reg != nil {
		return *r.reg
	}
	return r.get()
}

const (
	ctlJump = iota
	ctlHalt
)

type signalRef struct {
	unit int
	name string
	flag *bool
	get  func() bool
}

func (r *signalRef) value() bool {
	if r.flag != nil {
		return *r.flag
	}
	return r.get()
}

// Machine is a configured TACO processor instance: a set of functional
// units, a bus count, and the socket/signal address maps.
type Machine struct {
	name  string
	buses int
	units []Unit

	sockets   []socketRef // index = SocketID-1
	socketIDs map[string]isa.SocketID
	signals   []signalRef // index = SignalID
	signalIDs map[string]isa.SignalID

	prog   *isa.Program
	pc     int
	halted bool

	stats Stats

	// The execution count over the loaded program (see Count): issued
	// per PC, squashed per static move in flat program order, moveBase
	// each PC's first flat move index. A guard failure is counted at
	// once and stamped with its cycle (sqStamp, like wrStamp below), so
	// a cycle that ends in an error can take it back (uncount).
	issued   []int64
	squashed []int64
	sqStamp  []uint32
	moveBase []int32

	// Recorder, when non-nil, receives one flight-recorder event per
	// encoded move (and control-flow event) — the machine's black box.
	// Both step paths record natively at the same points, so the event
	// stream is bit-identical between the interpreter and the compiled
	// fast path. A nil recorder costs one pointer check per move; see
	// AttachRecorder. It is the only per-move stream: everything that
	// wants to see moves (stall bundles, replay, traces) reads it, between
	// cycles when it needs them one cycle at a time (RunStepped).
	Recorder *obs.FlightRecorder

	// cycleEvents is StepObserved's scratch: the events of the cycle just
	// executed, handed to the CycleFunc and reused by the next cycle.
	cycleEvents []obs.RecEvent

	// Scratch reused across cycles so that the steady-state Step loop
	// performs no heap allocation: pending writes, plus stamp arrays
	// replacing the per-cycle "written this cycle" / "triggered this
	// cycle" maps. An entry is considered set for the current cycle when
	// its stamp equals the machine's cycle stamp.
	writes    []pendingWrite
	trigStamp []uint32 // per unit: stamp of the cycle that triggered it
	wrStamp   []uint32 // per socket (index = SocketID-1): stamp of last write
	stamp     uint32

	// fast, when set by UseCompiled, is the compiled step path that Step,
	// Run, RunStepped and RunToPC execute through (see compile.go); nil
	// runs the interpreter, the reference semantics.
	fast *fastPath
}

type pendingWrite struct {
	ref *socketRef
	val uint32
}

// Stats accumulates execution counters.
type Stats struct {
	Cycles        int64 // executed cycles
	SlotsTotal    int64 // cycles × buses
	SlotsEncoded  int64 // bus slots carrying a move (guard true or false)
	MovesExecuted int64 // moves whose guard held
}

// BusUtilization returns the fraction of bus slots carrying an encoded
// move — the paper's "Bus util. [%]" metric, as a value in [0,1].
func (s Stats) BusUtilization() float64 {
	if s.SlotsTotal == 0 {
		return 0
	}
	return float64(s.SlotsEncoded) / float64(s.SlotsTotal)
}

// New assembles a machine from its units. Unit instance names must be
// unique; the pseudo-unit name "nc" is reserved for the controller.
func New(name string, buses int, units []Unit) (*Machine, error) {
	if buses < 1 {
		return nil, fmt.Errorf("tta: need at least one bus, got %d", buses)
	}
	nsock, nsig := 2, 0 // the controller's two sockets, then the units'
	for _, u := range units {
		nsock += len(u.Ports().Sockets)
		nsig += len(u.Ports().Lines)
	}
	m := &Machine{
		name:      name,
		buses:     buses,
		units:     units,
		sockets:   make([]socketRef, 0, nsock),
		socketIDs: make(map[string]isa.SocketID, nsock),
		signals:   make([]signalRef, 0, nsig),
		signalIDs: make(map[string]isa.SignalID, nsig),
	}
	addSocket := func(ref socketRef) error {
		if _, dup := m.socketIDs[ref.name]; dup {
			return fmt.Errorf("tta: duplicate socket %q", ref.name)
		}
		m.sockets = append(m.sockets, ref)
		m.socketIDs[ref.name] = isa.SocketID(len(m.sockets)) // IDs start at 1
		return nil
	}
	// Controller sockets first so every machine shares their IDs.
	if err := addSocket(socketRef{unit: -1, ctl: ctlJump, kind: Operand, name: ncJump}); err != nil {
		return nil, err
	}
	if err := addSocket(socketRef{unit: -1, ctl: ctlHalt, kind: Operand, name: ncHalt}); err != nil {
		return nil, err
	}
	seen := map[string]bool{"nc": true}
	for ui, u := range units {
		t := u.Ports()
		if seen[t.Name] {
			return nil, fmt.Errorf("tta: duplicate unit name %q", t.Name)
		}
		seen[t.Name] = true
		if err := t.check(); err != nil {
			return nil, err
		}
		for _, p := range t.Sockets {
			ref := socketRef{unit: ui, kind: p.Kind, name: t.Name + "." + p.Name,
				reg: p.Reg, get: p.Get, val: p.Val, armed: p.Armed}
			if err := addSocket(ref); err != nil {
				return nil, err
			}
		}
		for _, l := range t.Lines {
			name := t.Name + "." + l.Name
			if _, dup := m.signalIDs[name]; dup {
				return nil, fmt.Errorf("tta: duplicate signal %q", name)
			}
			m.signals = append(m.signals, signalRef{unit: ui, name: name, flag: l.Flag, get: l.Get})
			m.signalIDs[name] = isa.SignalID(len(m.signals) - 1)
		}
	}
	m.trigStamp = make([]uint32, len(m.units))
	m.wrStamp = make([]uint32, len(m.sockets))
	return m, nil
}

// check validates a port table: every writable socket names its (value,
// armed) storage, every readable socket exactly one of a register and a
// getter, every line exactly one of a flag and a getter, and a clocking
// promise that needs a hook has it.
func (t *PortTable) check() error {
	for _, p := range t.Sockets {
		if p.Kind != Result && (p.Val == nil || p.Armed == nil) {
			return fmt.Errorf("tta: unit %s: writable socket %s has no (value, armed) storage", t.Name, p.Name)
		}
		if (p.Kind == Result || p.Kind == Register) && (p.Reg == nil) == (p.Get == nil) {
			return fmt.Errorf("tta: unit %s: readable socket %s needs exactly one of a register and a getter", t.Name, p.Name)
		}
	}
	for _, l := range t.Lines {
		if (l.Flag == nil) == (l.Get == nil) {
			return fmt.Errorf("tta: unit %s: signal %s needs exactly one of a flag and a getter", t.Name, l.Name)
		}
	}
	if (t.Clocking == ClockSettled) != (t.Settled != nil) {
		return fmt.Errorf("tta: unit %s: clocking promise %d and its Settled hook disagree", t.Name, t.Clocking)
	}
	return nil
}

// Name returns the machine's configuration name.
func (m *Machine) Name() string { return m.name }

// Buses returns the interconnection network width.
func (m *Machine) Buses() int { return m.buses }

// Units returns the machine's functional units.
func (m *Machine) Units() []Unit { return m.units }

// Socket resolves a fully qualified socket name ("cnt0.add") to its ID.
func (m *Machine) Socket(name string) (isa.SocketID, error) {
	id, ok := m.socketIDs[name]
	if !ok {
		return isa.InvalidSocket, fmt.Errorf("tta: unknown socket %q", name)
	}
	return id, nil
}

// MustSocket is Socket for statically known names; it panics on failure.
func (m *Machine) MustSocket(name string) isa.SocketID {
	id, err := m.Socket(name)
	if err != nil {
		panic(err)
	}
	return id
}

// Signal resolves a fully qualified signal name ("cmp0.eq") to its ID.
func (m *Machine) Signal(name string) (isa.SignalID, error) {
	id, ok := m.signalIDs[name]
	if !ok {
		return 0, fmt.Errorf("tta: unknown signal %q", name)
	}
	return id, nil
}

// MustSignal is Signal for statically known names; it panics on failure.
func (m *Machine) MustSignal(name string) isa.SignalID {
	id, err := m.Signal(name)
	if err != nil {
		panic(err)
	}
	return id
}

// SocketName returns the fully qualified name for id, or "" if unknown.
func (m *Machine) SocketName(id isa.SocketID) string {
	if ref := m.sockRef(id); ref != nil {
		return ref.name
	}
	return ""
}

// SignalName returns the fully qualified name for id, or "" if unknown.
func (m *Machine) SignalName(id isa.SignalID) string {
	if int(id) >= len(m.signals) {
		return ""
	}
	return m.signals[id].name
}

// SocketKindOf returns the kind of socket id.
func (m *Machine) SocketKindOf(id isa.SocketID) (SocketKind, bool) {
	if ref := m.sockRef(id); ref != nil {
		return ref.kind, true
	}
	return 0, false
}

// SocketUnit returns the index of the unit owning socket id, or -1 for
// the network controller's own sockets.
func (m *Machine) SocketUnit(id isa.SocketID) (int, bool) {
	if ref := m.sockRef(id); ref != nil {
		return ref.unit, true
	}
	return 0, false
}

// SignalUnit returns the index of the unit driving signal id.
func (m *Machine) SignalUnit(id isa.SignalID) (int, bool) {
	if int(id) >= len(m.signals) {
		return 0, false
	}
	return m.signals[id].unit, true
}

// UnitHazardClass returns unit u's hazard class, or "" when it has none.
func (m *Machine) UnitHazardClass(u int) string {
	if u < 0 || u >= len(m.units) {
		return ""
	}
	return m.units[u].Ports().Hazard
}

// UnitOperandSockets returns the socket IDs of every Operand socket of
// unit u (used by the scheduler's operand-to-trigger dependency rule).
func (m *Machine) UnitOperandSockets(u int) []isa.SocketID {
	var out []isa.SocketID
	for i, s := range m.sockets {
		if s.unit == u && s.kind == Operand {
			out = append(out, isa.SocketID(i+1))
		}
	}
	return out
}

// SocketCount returns the number of sockets (IDs are 1..SocketCount).
func (m *Machine) SocketCount() int { return len(m.sockets) }

// UnitCount returns the number of functional units.
func (m *Machine) UnitCount() int { return len(m.units) }

// UnitNames lists every unit name in unit order.
func (m *Machine) UnitNames() []string {
	out := make([]string, len(m.units))
	for i, u := range m.units {
		out[i] = u.Ports().Name
	}
	return out
}

// SocketNames lists every socket name in ID order.
func (m *Machine) SocketNames() []string {
	out := make([]string, len(m.sockets))
	for i, s := range m.sockets {
		out[i] = s.name
	}
	return out
}

// SignalNames lists every signal name in ID order.
func (m *Machine) SignalNames() []string {
	out := make([]string, len(m.signals))
	for i, s := range m.signals {
		out[i] = s.name
	}
	return out
}

// Load installs a program and resets control flow (but not unit state or
// statistics; use Reset for a full power-on reset). On a compiled
// machine it lowers the new program too.
func (m *Machine) Load(p *isa.Program) error {
	if err := p.Validate(m.buses); err != nil {
		return err
	}
	m.prog = p
	m.pc = 0
	m.halted = false
	m.issued = make([]int64, len(p.Ins))
	m.squashed = make([]int64, p.MoveCount())
	m.sqStamp = make([]uint32, p.MoveCount())
	m.moveBase = make([]int32, len(p.Ins))
	base := 0
	for pc, in := range p.Ins {
		m.moveBase[pc] = int32(base)
		base += len(in.Moves)
	}
	if m.fast != nil {
		// Load validated p and the unit count is fixed, so lowering
		// cannot newly fail; the old lowering is dropped first anyway.
		m.fast = nil
		return m.UseCompiled()
	}
	return nil
}

// Reset restores power-on state: units, statistics and control flow.
func (m *Machine) Reset() {
	for _, u := range m.units {
		u.Reset()
	}
	m.pc = 0
	m.halted = false
	m.stats = Stats{}
	if m.fast != nil {
		m.fast.dirty = true // unit activity was rebuilt behind its back
	}
	m.AttachCounters() // restart the execution count
	if m.Recorder != nil {
		m.Recorder.Reset()
	}
}

// AttachCounters restarts the execution count, so Count and Counters
// report only the cycles run from here on. Counting itself is always
// on: Load and Reset restart it too.
func (m *Machine) AttachCounters() {
	clear(m.issued)
	clear(m.squashed)
}

// Count is a machine's execution count over its loaded program. For a
// static move schedule every per-bus, per-unit and per-socket aggregate
// — and every region of a cycle profile — is a linear function of it.
// A cycle that ends in an error counts nothing.
type Count struct {
	// Issued holds, per PC, the completed cycles that issued it.
	Issued []int64
	// Squashed holds, per static move, the completed cycles in which its
	// guard failed. A move's index is its flat position in program order
	// (instruction by instruction, bus by bus).
	Squashed []int64
}

// Count returns a copy of the execution count since Load, Reset or
// AttachCounters.
func (m *Machine) Count() Count {
	return Count{Issued: slices.Clone(m.issued), Squashed: slices.Clone(m.squashed)}
}

// Counters derives the per-bus, per-unit and per-socket activity of the
// counted cycles in one pass over the loaded program: each move of an
// issued instruction occupies its bus, and each one whose guard held
// reads its source socket, writes its destination and, through a
// trigger socket, starts its unit.
func (m *Machine) Counters() *obs.Counters {
	c := obs.NewCounters(m.buses, len(m.units), len(m.sockets))
	if m.prog == nil {
		return c
	}
	for pc, in := range m.prog.Ins {
		n := m.issued[pc]
		c.Cycles += n
		for bus, mv := range in.Moves {
			c.BusEncoded[bus] += n
			// A move that executes with a bad socket fails its cycle, so a
			// nonzero e always names valid sockets.
			e := n - m.squashed[int(m.moveBase[pc])+bus]
			if e == 0 {
				continue
			}
			c.BusExecuted[bus] += e
			if !mv.Src.Imm {
				c.SocketReads[mv.Src.Socket-1] += e
				if src := &m.sockets[mv.Src.Socket-1]; src.kind == Result {
					c.UnitResults[src.unit] += e
				}
			}
			c.SocketWrites[mv.Dst-1] += e
			if dst := &m.sockets[mv.Dst-1]; dst.unit >= 0 && dst.kind == Trigger {
				c.UnitTriggers[dst.unit] += e
			}
		}
	}
	return c
}

// uncount takes back the guard failures counted at pc in the cycle
// stamped stamp, which ended in an error: a failed cycle counts nothing.
func (m *Machine) uncount(pc int, stamp uint32) {
	base := int(m.moveBase[pc])
	for i := base; i < base+len(m.prog.Ins[pc].Moves); i++ {
		if m.sqStamp[i] == stamp {
			m.squashed[i]--
		}
	}
}

// AttachRecorder installs (and returns) a flight recorder retaining the
// last capacity events (obs.DefaultRecorderCap when capacity <= 0).
// Both step paths feed it natively; detach by setting Recorder to nil.
func (m *Machine) AttachRecorder(capacity int) *obs.FlightRecorder {
	m.Recorder = obs.NewFlightRecorder(capacity)
	return m.Recorder
}

// PC returns the current program counter.
func (m *Machine) PC() int { return m.pc }

// SetPC places control at addr (e.g. a label) before running.
func (m *Machine) SetPC(addr int) { m.pc = addr; m.halted = false }

// Halted reports whether the machine has stopped.
func (m *Machine) Halted() bool { return m.halted }

// Stats returns a copy of the accumulated counters.
func (m *Machine) Stats() Stats { return m.stats }

// ReadSocket reads a Result or Register socket by name — a debugging and
// test aid, not part of the machine's own semantics.
func (m *Machine) ReadSocket(name string) (uint32, error) {
	id, err := m.Socket(name)
	if err != nil {
		return 0, err
	}
	ref := &m.sockets[id-1]
	if ref.unit < 0 {
		return 0, fmt.Errorf("tta: socket %q is not readable", name)
	}
	if ref.kind != Result && ref.kind != Register {
		return 0, fmt.Errorf("tta: socket %q (%v) is not readable", name, ref.kind)
	}
	return ref.read(), nil
}

// SignalValue reads a signal line by name (test aid).
func (m *Machine) SignalValue(name string) (bool, error) {
	id, err := m.Signal(name)
	if err != nil {
		return false, err
	}
	return m.signals[id].value(), nil
}

// guardHolds evaluates a guard against the current signal state.
func (m *Machine) guardHolds(g isa.Guard) (bool, error) {
	for _, t := range g.Terms {
		if int(t.Signal) >= len(m.signals) {
			return false, fmt.Errorf("tta: guard references unknown signal %d", t.Signal)
		}
		if m.signals[t.Signal].value() == t.Negate { // signal XOR want: term fails
			return false, nil
		}
	}
	return true, nil
}

// Step executes one cycle. Running past the end of the program halts the
// machine, as does a write to nc.halt.
func (m *Machine) Step() error {
	if m.fast != nil {
		_, err := m.fast.runToPC(-1, 1)
		return err
	}
	return m.interpStep()
}

// RunToPC executes up to maxSteps cycles, additionally stopping once
// the program counter reaches stopPC after at least one executed cycle
// (stopPC < 0 never stops; machine halt always does). It returns the
// number of cycles executed. It is the batch entry point of every run
// loop; on the compiled path the whole batch runs in one call.
func (m *Machine) RunToPC(stopPC int, maxSteps int64) (int64, error) {
	if m.fast != nil {
		return m.fast.runToPC(stopPC, maxSteps)
	}
	start := m.stats.Cycles
	for !m.halted && m.stats.Cycles-start < maxSteps {
		if err := m.interpStep(); err != nil {
			return m.stats.Cycles - start, err
		}
		if stopPC >= 0 && m.pc == stopPC {
			break
		}
	}
	return m.stats.Cycles - start, nil
}

// interpStep is the interpreter's cycle: the reference semantics the
// compiled fast path reproduces bit for bit.
func (m *Machine) interpStep() (err error) {
	if m.halted {
		return nil
	}
	if m.prog == nil {
		return fmt.Errorf("tta: no program loaded")
	}
	if m.pc < 0 || m.pc >= len(m.prog.Ins) {
		m.halted = true
		return nil
	}
	in := m.prog.Ins[m.pc]
	if len(in.Moves) > m.buses {
		return fmt.Errorf("tta: pc %d: %d moves exceed %d buses", m.pc, len(in.Moves), m.buses)
	}

	if m.stamp++; m.stamp == 0 {
		m.stamp = m.restamp()
	}
	defer func() { // a cycle that ends in an error counts nothing
		if err != nil {
			m.uncount(m.pc, m.stamp)
		}
	}()
	if m.Recorder != nil {
		m.Recorder.SetCycle(m.stats.Cycles)
	}

	nextPC, moved, haltReq, err := m.moves(m.pc, m.stamp)
	m.stats.MovesExecuted += moved
	if err != nil {
		return err
	}
	now := m.stats.Cycles
	for _, u := range m.units {
		if err := u.Clock(now); err != nil {
			return fmt.Errorf("tta: pc %d: unit %s: %w", m.pc, u.Ports().Name, err)
		}
	}

	m.stats.Cycles++
	m.stats.SlotsTotal += int64(m.buses)
	m.stats.SlotsEncoded += int64(len(in.Moves))
	m.issued[m.pc]++

	if haltReq {
		m.halted = true
	}
	m.pc = nextPC
	if m.pc < 0 || m.pc >= len(m.prog.Ins) {
		m.halted = true
	}
	return nil
}

// moves executes the moves of the instruction at pc in the cycle stamped
// stamp — the one implementation of move semantics, shared by both step
// paths. In bus order it evaluates each guard, reads each source and
// makes every check a move can fail, recording the flight-recorder
// events as it goes; then it commits the unit writes, which stay listed
// in m.writes until the next call. It returns the next PC, the moves
// executed (a failing cycle's included) and whether one wrote nc.halt.
// On an error no unit write is committed.
func (m *Machine) moves(pc int, stamp uint32) (nextPC int, moved int64, halt bool, err error) {
	m.writes = m.writes[:0]
	nextPC = pc + 1
	rec := m.Recorder
	base := int(m.moveBase[pc])
	for bus := range m.prog.Ins[pc].Moves {
		mv := &m.prog.Ins[pc].Moves[bus]
		executed, err := m.guardHolds(mv.Guard)
		if err != nil {
			return nextPC, moved, halt, fmt.Errorf("tta: pc %d bus %d: %w", pc, bus, err)
		}
		if !executed {
			m.squashed[base+bus]++
			m.sqStamp[base+bus] = stamp
			if rec != nil {
				rec.Record(obs.RecEvent{Kind: obs.EvGuardFalse, PC: int32(pc),
					Bus: int16(bus), Src: recSrcCode(mv.Src), Dst: int32(mv.Dst)})
			}
			continue
		}
		val, err := m.readSource(mv.Src)
		if err != nil {
			return nextPC, moved, halt, fmt.Errorf("tta: pc %d bus %d: %w", pc, bus, err)
		}
		ref := m.sockRef(mv.Dst)
		if ref == nil {
			return nextPC, moved, halt, fmt.Errorf("tta: pc %d bus %d: bad destination socket %d", pc, bus, mv.Dst)
		}
		if m.wrStamp[mv.Dst-1] == stamp {
			return nextPC, moved, halt, fmt.Errorf("tta: pc %d: conflicting writes to %s", pc, ref.name)
		}
		m.wrStamp[mv.Dst-1] = stamp
		kind := obs.EvMove
		switch {
		case ref.unit < 0 && ref.ctl == ctlJump:
			nextPC, kind = int(val), obs.EvJump
		case ref.unit < 0:
			halt, kind = true, obs.EvHalt
		case ref.kind == Result:
			return nextPC, moved, halt, fmt.Errorf("tta: pc %d: write to result socket %s", pc, ref.name)
		case ref.kind == Trigger:
			if m.trigStamp[ref.unit] == stamp {
				return nextPC, moved, halt, fmt.Errorf("tta: pc %d: unit %s triggered twice in one cycle",
					pc, m.units[ref.unit].Ports().Name)
			}
			m.trigStamp[ref.unit] = stamp
			kind = obs.EvTrigger
		}
		if rec != nil {
			rec.Record(obs.RecEvent{Kind: kind, PC: int32(pc), Bus: int16(bus),
				Src: recSrcCode(mv.Src), Dst: int32(mv.Dst), Value: val})
		}
		if ref.unit >= 0 {
			m.writes = append(m.writes, pendingWrite{ref: ref, val: val})
		}
		moved++
	}
	for _, w := range m.writes {
		*w.ref.val, *w.ref.armed = w.val, true
	}
	return nextPC, moved, halt, nil
}

// restamp is the cycle stamp after a wraparound: every stale stamp is
// cleared so old cycles can never alias the current one.
func (m *Machine) restamp() uint32 {
	clear(m.trigStamp)
	clear(m.wrStamp)
	clear(m.sqStamp)
	return 1
}

// recSrcCode encodes a move source for flight-recorder events: -1 for
// an immediate, else the raw SocketID (even an out-of-range one — the
// event then reports the offending reference).
func recSrcCode(src isa.Source) int32 {
	if src.Imm {
		return -1
	}
	return int32(src.Socket)
}

// sockRef resolves a SocketID, nil when it is out of range.
func (m *Machine) sockRef(id isa.SocketID) *socketRef {
	if id == isa.InvalidSocket || int(id) > len(m.sockets) {
		return nil
	}
	return &m.sockets[id-1]
}

func (m *Machine) readSource(src isa.Source) (uint32, error) {
	if src.Imm {
		return src.Value, nil
	}
	ref := m.sockRef(src.Socket)
	if ref == nil {
		return 0, fmt.Errorf("bad source socket %d", src.Socket)
	}
	if ref.unit < 0 {
		return 0, fmt.Errorf("controller socket %s is not readable", ref.name)
	}
	if ref.kind != Result && ref.kind != Register {
		return 0, fmt.Errorf("socket %s (%v) is not readable", ref.name, ref.kind)
	}
	return ref.read(), nil
}

// Run executes until the machine halts or maxCycles elapse. It returns
// the number of cycles executed by this call.
func (m *Machine) Run(maxCycles int64) (int64, error) {
	n, _, err := m.RunStepped(maxCycles, nil)
	return n, err
}

// CycleFunc observes one executed cycle of a stepped run: the cycle's
// number (Stats().Cycles before it ran), the PC it executed, and the
// events the flight recorder gained during it — none for a cycle that
// encodes no move. The slice is reused by the next cycle. Returning
// false pauses the run before the next cycle.
type CycleFunc func(cycle int64, pc int, events []obs.RecEvent) bool

// RunStepped is Run one observed cycle at a time: same budget check,
// same error text, same final state, with onCycle called after every
// completed cycle, which needs an attached Recorder. A nil onCycle is
// Run, which executes in batches through RunToPC. paused reports that
// onCycle stopped the run while the machine could still execute.
func (m *Machine) RunStepped(maxCycles int64, onCycle CycleFunc) (n int64, paused bool, err error) {
	start := m.stats.Cycles
	more := true
	for !m.halted {
		done := m.stats.Cycles - start
		if maxCycles >= 0 && done >= maxCycles {
			return done, false, fmt.Errorf("tta: exceeded %d cycles (pc=%d)", maxCycles, m.pc)
		}
		if !more {
			return done, true, nil
		}
		if onCycle != nil {
			more, err = m.StepObserved(onCycle)
		} else {
			budget := int64(1) << 62
			if maxCycles >= 0 {
				budget = maxCycles - done
			}
			_, err = m.RunToPC(-1, budget)
		}
		if err != nil {
			return m.stats.Cycles - start, false, err
		}
	}
	return m.stats.Cycles - start, false, nil
}

// StepObserved executes one cycle (Step) and reports it to onCycle,
// whose verdict it returns. A cycle that ends in an error is not
// reported; neither is any cycle of a machine with no Recorder, which
// is an error.
func (m *Machine) StepObserved(onCycle CycleFunc) (bool, error) {
	rec := m.Recorder
	if rec == nil {
		return false, errors.New("tta: a stepped run reads the flight recorder: attach one first")
	}
	cycle, pc, mark := m.stats.Cycles, m.pc, rec.Total()
	if err := m.Step(); err != nil {
		return false, err
	}
	m.cycleEvents = m.cycleEvents[:0]
	rec.Since(mark, func(e obs.RecEvent) { m.cycleEvents = append(m.cycleEvents, e) })
	return onCycle(cycle, pc, m.cycleEvents), nil
}

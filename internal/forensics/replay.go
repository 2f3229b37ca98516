package forensics

import (
	"errors"
	"fmt"

	"taco/internal/asm"
	"taco/internal/fu"
	"taco/internal/obs"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/tta"
)

// ReplayOptions tunes a bundle re-execution.
type ReplayOptions struct {
	// Path overrides the bundle's recorded step path: nil replays as
	// recorded, otherwise true forces the compiled fast path and false
	// the interpreter. Both must reproduce the same failure — that is
	// the bit-identity contract tacoreplay -diff asserts.
	Path *bool
	// RecorderCap overrides the flight-recorder ring capacity; 0 uses
	// the bundle's recorded capacity (falling back to the default).
	// Reproducing the bundle's exact tail requires the capture
	// capacity; -diff uses a large ring to compare whole runs.
	RecorderCap int
	// Trace, when non-nil, streams every replayed cycle into a Chrome
	// trace-event writer (Perfetto / chrome://tracing). It makes the
	// replay a stepped one; observable behavior is unchanged.
	Trace *obs.TraceWriter
}

// observer folds what a replay wants to see of each cycle — the
// caller's onCycle, the Perfetto export, the until-cycle pause — into
// the one CycleFunc the stepped drivers take. It is nil when nothing is
// wanted, which selects the batch run.
func (o ReplayOptions) observer(m *tta.Machine, until int64, onCycle func(int64, []obs.RecEvent)) tta.CycleFunc {
	if onCycle == nil && until < 0 && o.Trace == nil {
		return nil
	}
	export := func([]obs.RecEvent) {}
	if o.Trace != nil {
		export = m.TraceHook(o.Trace)
	}
	return func(cycle int64, _ int, events []obs.RecEvent) bool {
		if onCycle != nil {
			onCycle(cycle, events)
		}
		export(events)
		return until < 0 || cycle < until
	}
}

func (o ReplayOptions) compiled(b *Bundle) bool {
	if o.Path != nil {
		return *o.Path
	}
	return b.Compiled
}

func (o ReplayOptions) recorderCap(b *Bundle) int {
	if o.RecorderCap > 0 {
		return o.RecorderCap
	}
	return b.RecorderCap
}

// ReplayResult is the observable outcome of re-executing a bundle.
type ReplayResult struct {
	// Cycles is the total machine cycles the replay executed.
	Cycles int64
	// Stall is non-nil when the replay hit the watchdog (router kinds).
	Stall *router.StallError
	// Err is a non-stall machine error's text ("" on clean completion;
	// machine-stall kinds put the budget-exhaustion text here).
	Err string
	// PC is the final program counter.
	PC int
	// Checked is the replay's checked run against the golden reference
	// recomputed from the bundle (router.ReferenceOutcomes, as at
	// capture): what the router did with the datagrams (clean
	// completions only), where that disagrees, the unexplained drops.
	router.Checked
	// Tail is the flight recorder's retained history at run end,
	// TailDropped the overwritten-event count.
	Tail        []obs.RecEvent
	TailDropped uint64
	SocketNames []string
	Sockets     []tta.SocketSnapshot
}

// Replay re-executes a bundle to completion (or failure) and returns
// what the replay observed. The replay is deterministic: same bundle,
// same options — same result, on either step path.
func Replay(b *Bundle, opts ReplayOptions) (*ReplayResult, error) {
	if b.Kind == KindMachineStall {
		return replayMachine(b, opts, -1, nil)
	}
	return replayRouter(b, opts, -1, nil)
}

// ReplayStep re-executes a bundle one cycle at a time, invoking onCycle
// after every executed cycle with the events that cycle recorded. A
// non-negative until stops once the machine has executed past that
// cycle number, leaving the result's snapshot at the inspection point.
func ReplayStep(b *Bundle, opts ReplayOptions, until int64, onCycle func(cycle int64, events []obs.RecEvent)) (*ReplayResult, error) {
	if b.Kind == KindMachineStall {
		return replayMachine(b, opts, until, onCycle)
	}
	return replayRouter(b, opts, until, onCycle)
}

// buildRouter reconstructs the bundle's router instance: table from the
// recorded routes, drop audit on, flight recorder armed.
func (b *Bundle) buildRouter(compiled bool, recorderCap int) (*router.TACO, error) {
	if b.Config == nil {
		return nil, errors.New("forensics: bundle carries no architecture config")
	}
	tbl := rtable.New(b.Config.Table)
	if err := rtable.InsertAll(tbl, b.Routes); err != nil {
		return nil, fmt.Errorf("forensics: rebuild table: %w", err)
	}
	tr, err := router.NewTACO(*b.Config, tbl, b.Ifaces)
	if err != nil {
		return nil, fmt.Errorf("forensics: rebuild router: %w", err)
	}
	tr.EnableDropAudit()
	tr.ArmRecorder(recorderCap)
	if compiled {
		if err := tr.UseCompiled(); err != nil {
			return nil, fmt.Errorf("forensics: %w", err)
		}
	}
	return tr, nil
}

func replayRouter(b *Bundle, opts ReplayOptions, until int64, onCycle func(int64, []obs.RecEvent)) (*ReplayResult, error) {
	tr, err := b.buildRouter(opts.compiled(b), opts.recorderCap(b))
	if err != nil {
		return nil, err
	}
	want, err := router.ReferenceOutcomes(b.Routes, b.Ifaces, b.Datagrams)
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{SocketNames: tr.Machine.SocketNames()}
	var runErr error
	res.Checked, runErr = tr.RunChecked(b.Datagrams, want, b.Budget, opts.observer(tr.Machine, until, onCycle))
	var se *router.StallError
	switch {
	case res.Paused:
		res.Err = fmt.Sprintf("replay: paused after cycle %d (pc %d)", until, tr.Machine.PC())
	case errors.As(runErr, &se):
		res.Stall = se
		res.Err = se.Error()
		res.Tail, res.TailDropped = se.Tail, se.TailDropped
		if se.SocketNames != nil {
			res.SocketNames = se.SocketNames
		}
		res.Sockets = se.Sockets
		res.PC = se.PC
		res.Cycles = tr.Machine.Stats().Cycles
		return res, nil
	case runErr != nil:
		res.Err = runErr.Error()
	}
	finishSnapshot(res, tr.Machine)
	return res, nil
}

// finishSnapshot reads m's terminal state and recorder tail into res.
func finishSnapshot(res *ReplayResult, m *tta.Machine) {
	res.Cycles = m.Stats().Cycles
	res.PC = m.PC()
	res.Sockets = m.SnapshotSockets()
	if rec := m.Recorder; rec != nil {
		res.Tail = rec.Tail()
		res.TailDropped = rec.Dropped()
	}
}

// NewMachineBundle assembles a KindMachineStall bundle: a compute
// program (assembly source) that faulted or exhausted its budget on
// cfg's machine.
func NewMachineBundle(label string, cfg fu.Config, asmSrc string, budget int64, compiled bool) *Bundle {
	return &Bundle{
		Version: Version, Kind: KindMachineStall, Label: label,
		Config: &cfg, Asm: asmSrc, Budget: budget, Compiled: compiled,
	}
}

// AttachMachineState copies a compute machine's terminal state (and
// armed recorder tail) into the bundle after a failed run.
func (b *Bundle) AttachMachineState(m *tta.Machine, runErr error) {
	if runErr != nil {
		b.Err = runErr.Error()
	}
	b.StallCycle = m.Stats().Cycles
	b.PC = m.PC()
	b.Sockets = m.SnapshotSockets()
	b.SocketNames = m.SocketNames()
	if rec := m.Recorder; rec != nil {
		b.Tail = rec.Tail()
		b.TailDropped = rec.Dropped()
	}
}

// buildMachine reconstructs the bundle's compute machine with the
// program re-assembled from the recorded source.
func (b *Bundle) buildMachine(recorderCap int) (*tta.Machine, error) {
	if b.Config == nil {
		return nil, errors.New("forensics: bundle carries no architecture config")
	}
	m, err := fu.NewComputeMachine(*b.Config)
	if err != nil {
		return nil, fmt.Errorf("forensics: rebuild machine: %w", err)
	}
	prog, err := asm.Assemble(b.Asm, m)
	if err != nil {
		return nil, fmt.Errorf("forensics: reassemble: %w", err)
	}
	if err := m.Load(prog); err != nil {
		return nil, fmt.Errorf("forensics: %w", err)
	}
	m.AttachRecorder(recorderCap)
	return m, nil
}

func replayMachine(b *Bundle, opts ReplayOptions, until int64, onCycle func(int64, []obs.RecEvent)) (*ReplayResult, error) {
	m, err := b.buildMachine(opts.recorderCap(b))
	if err != nil {
		return nil, err
	}
	if opts.compiled(b) {
		if err := m.UseCompiled(); err != nil {
			return nil, err
		}
	}
	res := &ReplayResult{SocketNames: m.SocketNames()}
	_, paused, runErr := m.RunStepped(b.Budget, opts.observer(m, until, onCycle))
	if paused {
		res.Err = fmt.Sprintf("replay: paused after cycle %d (pc %d)", until, m.PC())
	}
	if runErr != nil {
		res.Err = runErr.Error()
	}
	finishSnapshot(res, m)
	return res, nil
}

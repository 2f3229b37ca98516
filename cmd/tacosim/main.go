// Command tacosim runs TACO assembly programs on a configured processor
// instance and reports the machine state and execution statistics. With
// -describe it prints the architecture (the textual Figure 2).
//
// Usage:
//
//	tacosim -describe [-config 3bus3fu]
//	tacosim -f prog.s [-config 1bus] [-trace] [-max 100000] [-read gpr.r0,gpr.r1]
//	tacosim -f prog.s -trace-out trace.json   # open in ui.perfetto.dev
//	                                          # (-trace, -trace-out: also under -interp)
//	tacosim -f prog.s -json                   # machine-readable run metrics
//	tacosim -f prog.s -interp                 # reference interpreter instead of the
//	                                          # compiled fast path (counters included)
//	tacosim -f prog.s -metrics-out metrics.prom   # Prometheus text exposition
//	tacosim -f prog.s -stat-every 10000       # periodic NDJSON stats on stderr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"taco/internal/asm"
	"taco/internal/cliutil"
	"taco/internal/forensics"
	"taco/internal/fu"
	"taco/internal/obs"
	"taco/internal/tta"
)

func main() {
	var (
		describe = flag.Bool("describe", false, "print the architecture (Figure 2) and exit")
		file     = flag.String("f", "", "assembly file to run")
		config   = flag.String("config", "3bus1fu", "architecture: 1bus | 3bus1fu | 3bus3fu")
		trace    = flag.Bool("trace", false, "print every cycle's recorded events (the lines tacoreplay -step prints)")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON file (Perfetto)")
		jsonOut  = flag.Bool("json", false, "emit run metrics as JSON instead of text")
		interp   = flag.Bool("interp", false,
			"run through the reference interpreter instead of the compiled fast path (bit-identical, counters recorded on both)")
		maxCy        = flag.Int64("max", 1_000_000, "cycle budget")
		read         = flag.String("read", "", "comma-separated result/register sockets to print after the run")
		metricsOut   = flag.String("metrics-out", "", "write Prometheus text exposition to this file (also on stall)")
		statEvery    = flag.Int64("stat-every", 0, "emit an NDJSON stat event on stderr every N cycles")
		forensicsOut = flag.String("forensics-out", "",
			"arm the flight recorder and write a machine-stall forensic bundle (replayable with tacoreplay) on failure")
	)
	var prof cliutil.Profiling
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	cfg, err := cliutil.ConfigByName(*config, 0)
	if err != nil {
		fatal(err)
	}
	m, err := fu.NewComputeMachine(cfg)
	if err != nil {
		fatal(err)
	}

	if *describe {
		fmt.Print(m.Describe())
		return
	}
	if *file == "" {
		fatal(fmt.Errorf("nothing to do: pass -describe or -f prog.s"))
	}
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	src, err := os.ReadFile(*file)
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(string(src), m)
	if err != nil {
		fatal(err)
	}
	if err := m.Load(prog); err != nil {
		fatal(err)
	}

	// Counters are recorded natively by both step paths — the compiled
	// fast path no longer delegates for them — so they are always on.
	// The recorder is armed for whoever reads it: a failure bundle, the
	// stdout trace, the Chrome trace-event stream.
	ctrs := m.AttachCounters()
	if *forensicsOut != "" || *trace || *traceOut != "" {
		m.AttachRecorder(0)
	}

	// step advances the machine by up to n cycles through the selected
	// path; the budget/stat loop around it is shared.
	stepped := m.RunStepped
	step := func(n int64) (int64, error) {
		var i int64
		for ; i < n && !m.Halted(); i++ {
			if err := m.Step(); err != nil {
				return i, err
			}
		}
		return i, nil
	}
	if !*interp {
		cm, cerr := tta.Compile(m)
		if cerr != nil {
			fatal(cerr)
		}
		stepped = cm.RunStepped
		step = func(n int64) (int64, error) { return cm.RunToPC(-1, n) }
	}

	// Either trace sink turns the run into a stepped one that reads the
	// recorder after every cycle; a slice of n cycles ends by pausing.
	var tw *obs.TraceWriter
	export := func([]obs.RecEvent) {}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tw = obs.NewTraceWriter(f)
		export = m.TraceHook(tw)
	}
	if *trace || tw != nil {
		names := m.SocketNames()
		step = func(n int64) (int64, error) {
			done, _, err := stepped(-1, func(cycle int64, _ int, events []obs.RecEvent) bool {
				if *trace {
					obs.WriteCycle(os.Stdout, cycle, events, names)
				}
				export(events)
				n--
				return n > 0
			})
			return done, err
		}
	}
	var ev *obs.EventWriter
	if *statEvery > 0 {
		ev = obs.NewEventWriter(os.Stderr)
	}
	cycles, err := runSliced(m, step, *maxCy, *statEvery, ev)

	// Emit every requested artifact before judging the run: a stalled
	// program still deserves a loadable trace and a metrics scrape.
	if tw != nil {
		if cerr := tw.Close(); cerr != nil {
			fatal(fmt.Errorf("trace-out: %w", cerr))
		}
		fmt.Fprintf(os.Stderr, "tacosim: wrote %d trace events to %s\n", tw.Events(), *traceOut)
	}
	if *metricsOut != "" {
		if merr := writeMetrics(*metricsOut, m, ctrs); merr != nil {
			fatal(merr)
		}
	}
	if err != nil {
		dumpStall(m, cycles)
		if *forensicsOut != "" {
			b := forensics.NewMachineBundle(*config, cfg, string(src), *maxCy, !*interp)
			b.AttachMachineState(m, err)
			if path, berr := b.Save(*forensicsOut); berr != nil {
				fmt.Fprintln(os.Stderr, "tacosim: forensics capture failed:", berr)
			} else {
				fmt.Fprintf(os.Stderr, "tacosim: forensic bundle written: %s\n", path)
				fmt.Fprintf(os.Stderr, "tacosim: replay with: tacoreplay -bundle %s\n", path)
			}
		}
		fatal(err)
	}

	if *jsonOut {
		if err := emitJSON(m, ctrs, *read); err != nil {
			fatal(err)
		}
		return
	}

	st := m.Stats()
	fmt.Printf("halted after %d cycles; %d moves executed; bus utilization %.1f%%\n",
		cycles, st.MovesExecuted, st.BusUtilization()*100)
	if ctrs != nil {
		for u, unit := range m.Units() {
			if ctrs.UnitTriggers[u] == 0 {
				continue
			}
			fmt.Printf("  %-6s %5d triggers, %4.0f%% utilized\n",
				unit.Name(), ctrs.UnitTriggers[u], ctrs.UnitUtilization(u)*100)
		}
	}
	if *read != "" {
		for _, name := range strings.Split(*read, ",") {
			name = strings.TrimSpace(name)
			v, err := m.ReadSocket(name)
			if err != nil {
				fmt.Printf("  %-12s <%v>\n", name, err)
				continue
			}
			fmt.Printf("  %-12s = %d (0x%08x)\n", name, v, v)
		}
	}
}

// runSliced drives step to halt within maxCy cycles, in slices of
// `every` cycles when stat events are requested. The budget check
// matches Machine.Run / CompiledMachine.Run exactly (tested before each
// slice), so the failure mode and message are identical to an unsliced
// run.
func runSliced(m *tta.Machine, step func(int64) (int64, error), maxCy, every int64, ev *obs.EventWriter) (int64, error) {
	start := m.Stats().Cycles
	for !m.Halted() {
		done := m.Stats().Cycles - start
		if maxCy >= 0 && done >= maxCy {
			return done, fmt.Errorf("tta: exceeded %d cycles (pc=%d)", maxCy, m.PC())
		}
		slice := int64(1) << 62
		if maxCy >= 0 {
			slice = maxCy - done
		}
		if every > 0 && every < slice {
			slice = every
		}
		if _, err := step(slice); err != nil {
			return m.Stats().Cycles - start, err
		}
		if ev != nil && !m.Halted() {
			emitStat(ev, m, start, "stat")
		}
	}
	if ev != nil {
		emitStat(ev, m, start, "done")
		if err := ev.Flush(); err != nil {
			return m.Stats().Cycles - start, fmt.Errorf("stat-every: %w", err)
		}
	}
	return m.Stats().Cycles - start, nil
}

func emitStat(ev *obs.EventWriter, m *tta.Machine, start int64, event string) {
	st := m.Stats()
	ev.Emit(obs.StatEvent{
		Event:          event,
		Cycles:         st.Cycles - start,
		PC:             m.PC(),
		MovesExecuted:  st.MovesExecuted,
		BusUtilization: st.BusUtilization(),
	})
}

// writeMetrics renders the machine's observability state as Prometheus
// text exposition. tacosim runs compute programs — there is no
// per-packet latency — so the latency families expose an empty
// histogram; tacoroute fills them with real data.
func writeMetrics(path string, m *tta.Machine, ctrs *obs.Counters) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	names := make([]string, len(m.Units()))
	for u, unit := range m.Units() {
		names[u] = unit.Name()
	}
	snap := obs.MetricSnapshot{
		Labels:      map[string]string{"config": m.Name()},
		Cycles:      m.Stats().Cycles,
		Counters:    ctrs,
		UnitNames:   names,
		SocketNames: m.SocketNames(),
	}
	if err := obs.WriteProm(f, snap); err != nil {
		f.Close()
		return fmt.Errorf("metrics-out: %w", err)
	}
	return f.Close()
}

// dumpStall prints the machine state at the moment a run died — the
// program counter, how far it got, and every visible socket — so a
// stalled program can be diagnosed without re-running under -trace.
// With a flight recorder armed (-forensics-out, -trace, -trace-out) it
// appends the recorder's retained event tail.
func dumpStall(m *tta.Machine, cycles int64) {
	fmt.Fprintf(os.Stderr, "tacosim: machine state after %d cycles (pc %d):\n", cycles, m.PC())
	for _, s := range m.SnapshotSockets() {
		fmt.Fprintf(os.Stderr, "  %-16s %-8s 0x%08x\n", s.Name, s.Kind, s.Value)
	}
	if rec := m.Recorder; rec != nil && rec.Len() > 0 {
		fmt.Fprintf(os.Stderr, "tacosim: flight recorder, last %d events", rec.Len())
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, " (%d older events overwritten)", n)
		}
		fmt.Fprintln(os.Stderr)
		names := m.SocketNames()
		for _, e := range rec.Tail() {
			fmt.Fprintf(os.Stderr, "  %s\n", e.Format(names))
		}
	}
}

// simJSON is tacosim's machine-readable run report.
type simJSON struct {
	Config         string
	Buses          int
	Cycles         int64
	SlotsTotal     int64
	SlotsEncoded   int64
	MovesExecuted  int64
	BusUtilization float64
	BusOccupancy   []float64
	FUs            []fuJSON
	Sockets        []socketJSON `json:",omitempty"`
	Reads          map[string]uint32
}

type fuJSON struct {
	Unit        string
	Triggers    int64
	Results     int64
	Utilization float64
}

// socketJSON is one row of the move heatmap (zero-activity sockets are
// omitted).
type socketJSON struct {
	Socket string
	Reads  int64
	Writes int64
}

func emitJSON(m *tta.Machine, ctrs *obs.Counters, read string) error {
	st := m.Stats()
	out := simJSON{
		Config:         m.Name(),
		Buses:          m.Buses(),
		Cycles:         st.Cycles,
		SlotsTotal:     st.SlotsTotal,
		SlotsEncoded:   st.SlotsEncoded,
		MovesExecuted:  st.MovesExecuted,
		BusUtilization: st.BusUtilization(),
	}
	// Counters are attached on both step paths, so these sections are
	// present under -interp too.
	if ctrs != nil {
		for b := 0; b < m.Buses(); b++ {
			out.BusOccupancy = append(out.BusOccupancy, ctrs.BusOccupancy(b))
		}
		for u, unit := range m.Units() {
			out.FUs = append(out.FUs, fuJSON{
				Unit:        unit.Name(),
				Triggers:    ctrs.UnitTriggers[u],
				Results:     ctrs.UnitResults[u],
				Utilization: ctrs.UnitUtilization(u),
			})
		}
		for i, name := range m.SocketNames() {
			if ctrs.SocketReads[i] == 0 && ctrs.SocketWrites[i] == 0 {
				continue
			}
			out.Sockets = append(out.Sockets, socketJSON{
				Socket: name, Reads: ctrs.SocketReads[i], Writes: ctrs.SocketWrites[i],
			})
		}
	}
	if read != "" {
		out.Reads = map[string]uint32{}
		for _, name := range strings.Split(read, ",") {
			name = strings.TrimSpace(name)
			v, err := m.ReadSocket(name)
			if err != nil {
				return err
			}
			out.Reads[name] = v
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tacosim:", err)
	os.Exit(1)
}

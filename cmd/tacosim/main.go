// Command tacosim runs TACO assembly programs on a configured processor
// instance and reports the machine state and execution statistics. With
// -describe it prints the architecture (the textual Figure 2).
//
// Usage:
//
//	tacosim -describe [-config 3bus3fu]
//	tacosim -f prog.s [-config 1bus] [-trace] [-max 100000] [-read gpr.r0,gpr.r1]
//	tacosim -f prog.s -trace-out trace.json   # open in ui.perfetto.dev
//	tacosim -f prog.s -json                   # machine-readable run metrics
//	tacosim -f prog.s -interp                 # reference interpreter, same output
//	tacosim -f prog.s -metrics-out metrics.prom   # Prometheus text exposition
//	tacosim -f prog.s -stat-every 10000       # periodic NDJSON stats on stderr
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"taco/internal/asm"
	"taco/internal/cliutil"
	"taco/internal/forensics"
	"taco/internal/fu"
	"taco/internal/obs"
	"taco/internal/tta"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cliutil.New("tacosim", stdout, stderr,
		"f", "config", "interp", "json", "metrics-out", "trace-out", "forensics-out", "cpuprofile", "memprofile")
	describe := c.Bool("describe", false, "print the architecture (Figure 2) and exit")
	trace := c.Bool("trace", false, "print every cycle's recorded events (the lines tacoreplay -step prints)")
	maxCy := c.Int64("max", 1_000_000, "cycle budget")
	read := c.String("read", "", "comma-separated result/register sockets to print after the run")
	statEvery := c.Int64("stat-every", 0, "emit an NDJSON stat event on stderr every N cycles")
	return c.Run(args, func() error {
		cfg, err := cliutil.ConfigByName(c.Config, 0)
		if err != nil {
			return err
		}
		m, err := fu.NewComputeMachine(cfg)
		if err != nil {
			return err
		}
		if *describe {
			fmt.Fprint(stdout, m.Describe())
			return nil
		}
		if c.File == "" {
			return cliutil.Usage(errors.New("nothing to do: pass -describe or -f prog.s"))
		}
		src, err := os.ReadFile(c.File)
		if err != nil {
			return err
		}
		prog, err := asm.Assemble(string(src), m)
		if err != nil {
			return err
		}
		if err := m.Load(prog); err != nil {
			return err
		}
		reads, err := resolveReads(m, *read)
		if err != nil {
			return err
		}

		// The recorder is armed for whoever reads it: a failure bundle, the
		// stdout trace, the Chrome trace-event stream.
		if c.ForensicsOut != "" || *trace || c.TraceOut != "" {
			m.AttachRecorder(0)
		}

		if !c.Interp {
			if err := m.UseCompiled(); err != nil {
				return err
			}
		}
		// step advances the machine by up to n cycles; the budget/stat
		// loop around it is shared.
		step := func(n int64) (int64, error) { return m.RunToPC(-1, n) }

		// Either trace sink turns the run into a stepped one that reads the
		// recorder after every cycle; a slice of n cycles ends by pausing.
		var tw *obs.TraceWriter
		var traceFile *os.File
		export := func([]obs.RecEvent) {}
		if c.TraceOut != "" {
			if traceFile, err = os.Create(c.TraceOut); err != nil {
				return err
			}
			defer traceFile.Close()
			tw = obs.NewTraceWriter(traceFile)
			export = m.TraceHook(tw)
		}
		if *trace || tw != nil {
			names := m.SocketNames()
			step = func(n int64) (int64, error) {
				done, _, err := m.RunStepped(-1, func(cycle int64, _ int, events []obs.RecEvent) bool {
					if *trace {
						obs.WriteCycle(stdout, cycle, events, names)
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
			ev = obs.NewEventWriter(stderr)
		}
		cycles, err := runSliced(m, step, *maxCy, *statEvery, ev)
		ctrs := m.Counters()

		// Emit every requested artifact before judging the run: a stalled
		// program still deserves a loadable trace and a metrics scrape.
		if tw != nil {
			if cerr := errors.Join(tw.Close(), traceFile.Close()); cerr != nil {
				return fmt.Errorf("trace-out: %w", cerr)
			}
			fmt.Fprintf(stderr, "tacosim: wrote %d trace events to %s\n", tw.Events(), c.TraceOut)
		}
		if merr := cliutil.WriteFile(c.MetricsOut, func(w io.Writer) error { return writeMetrics(w, m, ctrs) }); merr != nil {
			return merr
		}
		if err != nil {
			dumpStall(stderr, m, cycles)
			if c.ForensicsOut != "" {
				b := forensics.NewMachineBundle(c.Config, cfg, string(src), *maxCy, !c.Interp)
				b.AttachMachineState(m, err)
				c.SaveBundle(b, c.ForensicsOut)
			}
			return err
		}

		if c.JSON {
			return emitJSON(stdout, m, ctrs, reads)
		}
		st := m.Stats()
		fmt.Fprintf(stdout, "halted after %d cycles; %d moves executed; bus utilization %.1f%%\n",
			cycles, st.MovesExecuted, st.BusUtilization()*100)
		for u, name := range m.UnitNames() {
			if ctrs.UnitTriggers[u] == 0 {
				continue
			}
			fmt.Fprintf(stdout, "  %-6s %5d triggers, %4.0f%% utilized\n",
				name, ctrs.UnitTriggers[u], ctrs.UnitUtilization(u)*100)
		}
		for _, name := range reads {
			v, _ := m.ReadSocket(name)
			fmt.Fprintf(stdout, "  %-12s = %d (0x%08x)\n", name, v, v)
		}
		return nil
	})
}

// resolveReads checks every -read socket name before the run, so an
// unknown or unreadable name is the same usage error whichever output
// the run prints. Reading a socket has no side effects.
func resolveReads(m *tta.Machine, list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	names := strings.Split(list, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if _, err := m.ReadSocket(names[i]); err != nil {
			return nil, cliutil.Usage(fmt.Errorf("-read: %w", err))
		}
	}
	return names, nil
}

// runSliced drives step to halt within maxCy cycles, in slices of
// `every` cycles when stat events are requested. The budget check
// matches Machine.Run exactly (tested before each slice), so the
// failure mode and message are identical to an unsliced run. The stat
// events are flushed however the run ends.
func runSliced(m *tta.Machine, step func(int64) (int64, error), maxCy, every int64, ev *obs.EventWriter) (cycles int64, err error) {
	start := m.Stats().Cycles
	if ev != nil {
		defer func() {
			if ferr := ev.Flush(); ferr != nil && err == nil {
				err = fmt.Errorf("stat-every: %w", ferr)
			}
		}()
	}
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
func writeMetrics(w io.Writer, m *tta.Machine, ctrs *obs.Counters) error {
	return obs.WriteProm(w, obs.MetricSnapshot{
		Labels:      map[string]string{"config": m.Name()},
		Cycles:      m.Stats().Cycles,
		Counters:    ctrs,
		UnitNames:   m.UnitNames(),
		SocketNames: m.SocketNames(),
	})
}

// dumpStall prints the machine state at the moment a run died — the
// program counter, how far it got, and every visible socket — so a
// stalled program can be diagnosed without re-running under -trace.
// With a flight recorder armed (-forensics-out, -trace, -trace-out) it
// appends the recorder's retained event tail.
func dumpStall(w io.Writer, m *tta.Machine, cycles int64) {
	fmt.Fprintf(w, "tacosim: machine state after %d cycles (pc %d):\n", cycles, m.PC())
	for _, s := range m.SnapshotSockets() {
		fmt.Fprintf(w, "  %-16s %-8s 0x%08x\n", s.Name, s.Kind, s.Value)
	}
	if rec := m.Recorder; rec != nil && rec.Len() > 0 {
		fmt.Fprintf(w, "tacosim: flight recorder, last %d events", rec.Len())
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(w, " (%d older events overwritten)", n)
		}
		fmt.Fprintln(w)
		names := m.SocketNames()
		for _, e := range rec.Tail() {
			fmt.Fprintf(w, "  %s\n", e.Format(names))
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

func emitJSON(w io.Writer, m *tta.Machine, ctrs *obs.Counters, reads []string) error {
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
	for b := 0; b < m.Buses(); b++ {
		out.BusOccupancy = append(out.BusOccupancy, ctrs.BusOccupancy(b))
	}
	for u, name := range m.UnitNames() {
		out.FUs = append(out.FUs, fuJSON{
			Unit:        name,
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
	if reads != nil {
		out.Reads = map[string]uint32{}
		for _, name := range reads {
			out.Reads[name], _ = m.ReadSocket(name)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

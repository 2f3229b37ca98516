// Command tacoreplay is the deterministic forensic debugger: it loads a
// bundle written by a failing run (a soak campaign, a sweep point, a
// stalled tacoroute/tacosim, a tacotopo network invariant violation —
// anything with -forensics-out) and re-executes it bit-identically,
// without the original workload generator, fault injector, sweep
// harness or mesh. A net-invariant bundle carries one mesh node's exact
// FIB plus the probe datagram that witnessed the violation, so the
// whole-network failure replays as a single-router execution.
//
// Modes:
//
//	tacoreplay -bundle b.json                  replay, verify the failure reproduces
//	tacoreplay -bundle b.json -diff            replay on BOTH step paths, diff event streams
//	tacoreplay -bundle b.json -step            print every cycle's recorded events
//	tacoreplay -bundle b.json -until-cycle N   stop just past cycle N, dump machine state
//	tacoreplay -bundle b.json -tail            print the bundle's captured recorder tail
//	tacoreplay -bundle b.json -trace-out t.json  write a Perfetto/chrome://tracing trace
//
// Exit status is 0 when the bundle's failure reproduces (and, under
// -diff, both paths agree), non-zero otherwise — so CI can assert that
// a committed repro corpus still reproduces.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"taco/internal/cliutil"
	"taco/internal/forensics"
	"taco/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cliutil.New("tacoreplay", stdout, stderr, "trace-out")
	bundlePath := c.String("bundle", "", "forensic bundle to replay (required)")
	step := c.Bool("step", false, "print every cycle's recorded events while replaying")
	untilCycle := c.Int64("until-cycle", -1, "pause the replay just past this machine cycle and dump state")
	diff := c.Bool("diff", false, "replay on both step paths and report the first diverging event")
	tail := c.Bool("tail", false, "print the bundle's captured flight-recorder tail and exit")
	path := c.String("path", "", "step path override: interpreted | compiled (default: as recorded)")
	return c.Run(args, func() error {
		if *bundlePath == "" {
			return cliutil.Usage(errors.New("nothing to do: pass -bundle b.json"))
		}
		var stepPath *bool
		switch *path {
		case "":
		case "interpreted", "compiled":
			compiled := *path == "compiled"
			stepPath = &compiled
		default:
			return cliutil.Usage(fmt.Errorf("unknown -path %q (want interpreted or compiled)", *path))
		}
		b, err := forensics.Load(*bundlePath)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "bundle: %s (version %d, kind %s", *bundlePath, b.Version, b.Kind)
		if b.Label != "" {
			fmt.Fprintf(stdout, ", %s", b.Label)
		}
		fmt.Fprintln(stdout, ")")
		if b.Note != "" {
			fmt.Fprintf(stdout, "  note: %s\n", b.Note)
		}
		if b.Err != "" {
			fmt.Fprintf(stdout, "  recorded failure: %s\n", b.Err)
		}
		if *tail {
			printTail(stdout, b)
			return nil
		}
		opts := forensics.ReplayOptions{Path: stepPath}
		replay := func() error {
			switch {
			case *diff:
				return runDiff(stdout, b, opts)
			case *step || *untilCycle >= 0:
				return runStep(stdout, b, opts, *untilCycle, *step)
			}
			return runVerify(stdout, b, opts)
		}
		if c.TraceOut == "" {
			return replay()
		}
		return cliutil.WriteFile(c.TraceOut, func(w io.Writer) error {
			opts.Trace = obs.NewTraceWriter(w)
			err := replay()
			// A failed replay still leaves a loadable trace behind.
			return errors.Join(err, opts.Trace.Close())
		})
	})
}

// runVerify replays once and asserts the recorded failure reproduces.
func runVerify(w io.Writer, b *forensics.Bundle, opts forensics.ReplayOptions) error {
	res, err := forensics.Replay(b, opts)
	if err != nil {
		return err
	}
	printOutcome(w, res)
	if err := forensics.CheckReproduction(b, res); err != nil {
		return fmt.Errorf("NOT reproduced: %w", err)
	}
	fmt.Fprintln(w, "reproduction: OK — replay matches the bundle's recorded failure")
	return nil
}

// runDiff replays on both step paths with a ring large enough to retain
// the whole run and reports the first diverging recorded event — the
// interpreted-vs-compiled forensic comparison.
func runDiff(w io.Writer, b *forensics.Bundle, opts forensics.ReplayOptions) error {
	// A generously sized ring so the comparison covers the entire run,
	// not just the capture-sized tail.
	const diffCap = 1 << 21
	run := func(compiled bool) (*forensics.ReplayResult, error) {
		o := opts
		o.Path = &compiled
		o.RecorderCap = diffCap
		return forensics.Replay(b, o)
	}
	interp, err := run(false)
	if err != nil {
		return err
	}
	comp, err := run(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "interpreted: %s\n", outcomeLine(interp))
	fmt.Fprintf(w, "compiled:    %s\n", outcomeLine(comp))
	if d := forensics.DiffEvents(interp.Tail, comp.Tail); d != nil {
		return fmt.Errorf("step paths diverged:\n%s",
			d.Describe("interpreted", "compiled", interp.SocketNames))
	}
	if interp.Cycles != comp.Cycles {
		return fmt.Errorf("cycle counts diverged: interpreted %d, compiled %d", interp.Cycles, comp.Cycles)
	}
	if interp.Err != comp.Err {
		return fmt.Errorf("outcomes diverged: interpreted %q, compiled %q", interp.Err, comp.Err)
	}
	fmt.Fprintf(w, "diff: %d events on both paths, no divergence\n", len(interp.Tail))

	// The paths agree with each other; now check they agree with the
	// bundle (same failure, same cycle).
	if err := forensics.CheckReproduction(b, interp); err != nil {
		return fmt.Errorf("paths agree but the recorded failure did NOT reproduce: %w", err)
	}
	fmt.Fprintln(w, "reproduction: OK — both paths reproduce the bundle's recorded failure")
	return nil
}

// runStep replays cycle by cycle, printing recorded events (with -step)
// until completion or the -until-cycle pause point.
func runStep(w io.Writer, b *forensics.Bundle, opts forensics.ReplayOptions, until int64, print bool) error {
	res, err := forensics.ReplayStep(b, opts, until, func(cycle int64, evs []obs.RecEvent) {
		if print {
			obs.WriteCycle(w, cycle, evs, b.SocketNames)
		}
	})
	if err != nil {
		return err
	}
	printOutcome(w, res)
	if len(res.Sockets) > 0 {
		fmt.Fprintln(w, "machine state:")
		for _, s := range res.Sockets {
			fmt.Fprintf(w, "  %-16s %-8s 0x%08x\n", s.Name, s.Kind, s.Value)
		}
	}
	return nil
}

func printTail(w io.Writer, b *forensics.Bundle) {
	if len(b.Tail) == 0 {
		fmt.Fprintln(w, "bundle carries no recorder tail")
		return
	}
	fmt.Fprintf(w, "flight recorder tail: %d events", len(b.Tail))
	if b.TailDropped > 0 {
		fmt.Fprintf(w, " (%d older events overwritten)", b.TailDropped)
	}
	fmt.Fprintln(w)
	for _, e := range b.Tail {
		fmt.Fprintf(w, "  %s\n", e.Format(b.SocketNames))
	}
}

func outcomeLine(res *forensics.ReplayResult) string {
	switch {
	case res.Stall != nil:
		return fmt.Sprintf("stalled at cycle %d (pc %d, cause %s)",
			res.Stall.Cycles, res.Stall.PC, res.Stall.Cause)
	case res.Err != "":
		return fmt.Sprintf("failed after %d cycles: %s", res.Cycles, res.Err)
	default:
		return fmt.Sprintf("completed cleanly in %d cycles (pc %d)", res.Cycles, res.PC)
	}
}

func printOutcome(w io.Writer, res *forensics.ReplayResult) {
	fmt.Fprintf(w, "replay: %s\n", outcomeLine(res))
	if res.Stall != nil && len(res.Tail) > 0 {
		fmt.Fprintf(w, "  (recorder retained %d events; -tail or -step to inspect)\n", len(res.Tail))
	}
}

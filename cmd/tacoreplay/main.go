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
	"flag"
	"fmt"
	"os"

	"taco/internal/forensics"
	"taco/internal/obs"
)

func main() {
	var (
		bundlePath = flag.String("bundle", "", "forensic bundle to replay (required)")
		step       = flag.Bool("step", false, "print every cycle's recorded events while replaying")
		untilCycle = flag.Int64("until-cycle", -1, "pause the replay just past this machine cycle and dump state")
		diff       = flag.Bool("diff", false, "replay on both step paths and report the first diverging event")
		tail       = flag.Bool("tail", false, "print the bundle's captured flight-recorder tail and exit")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event (Perfetto) file of the replay")
		path       = flag.String("path", "", "step path override: interpreted | compiled (default: as recorded)")
	)
	flag.Parse()
	if *bundlePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	b, err := forensics.Load(*bundlePath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("bundle: %s (version %d, kind %s", *bundlePath, b.Version, b.Kind)
	if b.Label != "" {
		fmt.Printf(", %s", b.Label)
	}
	fmt.Println(")")
	if b.Note != "" {
		fmt.Printf("  note: %s\n", b.Note)
	}
	if b.Err != "" {
		fmt.Printf("  recorded failure: %s\n", b.Err)
	}

	if *tail {
		printTail(b)
		return
	}

	var stepPath *bool
	switch *path {
	case "":
	case "interpreted", "compiled":
		c := *path == "compiled"
		stepPath = &c
	default:
		fatal(fmt.Errorf("unknown -path %q (want interpreted or compiled)", *path))
	}
	var tw *obs.TraceWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		tw = obs.NewTraceWriter(f)
		defer func() {
			if err := tw.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "tacoreplay: trace-out:", err)
			}
			f.Close()
		}()
	}
	opts := forensics.ReplayOptions{Path: stepPath, Trace: tw}

	if *diff {
		if err := runDiff(b, opts); err != nil {
			fatal(err)
		}
		return
	}
	if *step || *untilCycle >= 0 {
		runStep(b, opts, *untilCycle, *step)
		return
	}
	runVerify(b, opts)
}

// runVerify replays once and asserts the recorded failure reproduces.
func runVerify(b *forensics.Bundle, opts forensics.ReplayOptions) {
	res, err := forensics.Replay(b, opts)
	if err != nil {
		fatal(err)
	}
	printOutcome(res)
	if err := forensics.CheckReproduction(b, res); err != nil {
		fatal(fmt.Errorf("NOT reproduced: %w", err))
	}
	fmt.Println("reproduction: OK — replay matches the bundle's recorded failure")
}

// runDiff replays on both step paths with a ring large enough to retain
// the whole run and reports the first diverging recorded event — the
// interpreted-vs-compiled forensic comparison.
func runDiff(b *forensics.Bundle, opts forensics.ReplayOptions) error {
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
	fmt.Printf("interpreted: %s\n", outcomeLine(interp))
	fmt.Printf("compiled:    %s\n", outcomeLine(comp))
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
	fmt.Printf("diff: %d events on both paths, no divergence\n", len(interp.Tail))

	// The paths agree with each other; now check they agree with the
	// bundle (same failure, same cycle).
	if err := forensics.CheckReproduction(b, interp); err != nil {
		return fmt.Errorf("paths agree but the recorded failure did NOT reproduce: %w", err)
	}
	fmt.Println("reproduction: OK — both paths reproduce the bundle's recorded failure")
	return nil
}

// runStep replays cycle by cycle, printing recorded events (with -step)
// until completion or the -until-cycle pause point.
func runStep(b *forensics.Bundle, opts forensics.ReplayOptions, until int64, print bool) {
	names := b.SocketNames
	res, err := forensics.ReplayStep(b, opts, until, func(cycle int64, evs []obs.RecEvent) {
		if print {
			obs.WriteCycle(os.Stdout, cycle, evs, names)
		}
	})
	if err != nil {
		fatal(err)
	}
	printOutcome(res)
	if len(res.Sockets) > 0 {
		fmt.Println("machine state:")
		for _, s := range res.Sockets {
			fmt.Printf("  %-16s %-8s 0x%08x\n", s.Name, s.Kind, s.Value)
		}
	}
}

func printTail(b *forensics.Bundle) {
	if len(b.Tail) == 0 {
		fmt.Println("bundle carries no recorder tail")
		return
	}
	fmt.Printf("flight recorder tail: %d events", len(b.Tail))
	if b.TailDropped > 0 {
		fmt.Printf(" (%d older events overwritten)", b.TailDropped)
	}
	fmt.Println()
	for _, e := range b.Tail {
		fmt.Printf("  %s\n", e.Format(b.SocketNames))
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

func printOutcome(res *forensics.ReplayResult) {
	fmt.Printf("replay: %s\n", outcomeLine(res))
	if res.Stall != nil && len(res.Tail) > 0 {
		fmt.Printf("  (recorder retained %d events; -tail or -step to inspect)\n", len(res.Tail))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tacoreplay:", err)
	os.Exit(1)
}

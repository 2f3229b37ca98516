// Command tacotopo drives network-scale simulations of many router
// instances (golden, TACO-interpreted, TACO-compiled, or mixed) over
// generated topologies, reusing the per-edge fault layer and the RIPng
// control plane.
//
// Two modes:
//
//	tacotopo -sizes 4,6,8                 convergence-time-vs-size curves
//	tacotopo -campaign                    one seeded chaos campaign
//
// Campaigns schedule link flaps, one partition/heal, node crashes,
// restarts and poison storms on a seeded discrete-event clock, audit
// probe datagrams across the mesh, and emit a verdict: FIBs converge to
// the whole-network oracle, no forwarding loops, every probe delivers
// or dies for an audited reason, and all drop accounting is conserved.
// Reports are byte-identical across -workers; -forensics-out serializes
// a replayable forensics.Bundle (tacoreplay) for every stall,
// differential divergence, or invariant violation. -csv-out and
// -json-out also write the report as CSV and JSON files.
//
// Exit status: 0 when the run passed, 1 when any invariant failed.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"taco/internal/cliutil"
	tnet "taco/internal/net"
	"taco/internal/rtable"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cliutil.New("tacotopo", stdout, stderr, "table", "seed", "workers", "forensics-out", "cpuprofile", "memprofile")
	topoKind := c.String("topo", "fattree", "topology kind: "+strings.Join(tnet.TopologyKinds, "|"))
	size := c.Int("size", 8, "topology size (node count; arity k for fattree)")
	sizes := c.String("sizes", "", "comma-separated sizes: emit convergence curves instead of a campaign")
	mix := c.String("mix", "golden", "node mix: "+strings.Join(tnet.MixKinds, "|"))

	campaign := c.Bool("campaign", false, "run a chaos campaign on -topo/-size")
	flaps := c.Int("flaps", 4, "campaign: scheduled link flaps")
	partition := c.Bool("partition", true, "campaign: one partition/heal")
	crashes := c.Int("crashes", 1, "campaign: node crash/restart cycles")
	storms := c.Int("storms", 1, "campaign: poison storms")
	watch := c.Bool("watch-metrics", false, "sample FIB metrics every tick to bound count-to-infinity (slow)")
	inject := c.Bool("inject-violation", false, "deliberately blackhole a stub route before the verdict sweep (expected verdict: FAIL)")

	csvOut := c.String("csv-out", "", "also write the report as CSV to this file")
	jsonOut := c.String("json-out", "", "also write the report as JSON to this file")
	return c.Run(args, func() error {
		kind, err := rtable.ParseKind(c.Table)
		if err != nil {
			return cliutil.Usage(err)
		}
		opt := tnet.Options{
			Mix:          *mix,
			Table:        kind,
			Seed:         c.Seed,
			Workers:      c.Workers,
			ForensicsDir: c.ForensicsOut,
			WatchMetrics: *watch,
		}
		if *sizes != "" {
			sz, err := cliutil.ParseSizes(*sizes)
			if err != nil {
				return fmt.Errorf("-sizes: %w", err)
			}
			pts, err := tnet.ConvergenceCurve(*topoKind, sz, opt)
			if err != nil {
				return cliutil.Usage(err)
			}
			err = errors.Join(tnet.WriteCurvesText(stdout, pts),
				cliutil.WriteFile(*csvOut, func(w io.Writer) error { return tnet.WriteCurvesCSV(w, pts) }),
				cliutil.WriteFile(*jsonOut, func(w io.Writer) error { return tnet.WriteCurvesJSON(w, pts) }))
			if err != nil {
				return err
			}
			for _, p := range pts {
				if !p.Converged {
					return fmt.Errorf("size %d did not converge", p.Size)
				}
			}
			return nil
		}
		if !*campaign {
			return cliutil.Usage(errors.New("nothing to do: pass -campaign or -sizes (see -h)"))
		}
		topo, err := tnet.Generate(*topoKind, *size, c.Seed)
		if err != nil {
			return cliutil.Usage(err)
		}
		m, err := tnet.NewMesh(topo, opt)
		if err != nil {
			return cliutil.Usage(err)
		}
		rep := tnet.RunCampaign(m, tnet.CampaignOptions{
			Flaps:           *flaps,
			Partition:       *partition,
			Crashes:         *crashes,
			Storms:          *storms,
			InjectViolation: *inject,
		})
		err = errors.Join(rep.WriteText(stdout), cliutil.WriteFile(*csvOut, rep.WriteCSV), cliutil.WriteFile(*jsonOut, rep.WriteJSON))
		if err != nil {
			return err
		}
		if rep.Verdict != "PASS" {
			return fmt.Errorf("campaign verdict %s", rep.Verdict)
		}
		return nil
	})
}

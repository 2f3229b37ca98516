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
// differential divergence, or invariant violation.
//
// Exit status: 0 when the run passed, 1 when any invariant failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"taco/internal/cliutil"
	tnet "taco/internal/net"
	"taco/internal/rtable"
)

func main() { os.Exit(run()) }

// run is main's body; it returns the exit status instead of calling
// os.Exit so the deferred profile writer runs on every verdict.
func run() int {
	var (
		topoKind = flag.String("topo", "fattree", "topology kind: "+strings.Join(tnet.TopologyKinds, "|"))
		size     = flag.Int("size", 8, "topology size (node count; arity k for fattree)")
		sizes    = flag.String("sizes", "", "comma-separated sizes: emit convergence curves instead of a campaign")
		mix      = flag.String("mix", "golden", "node mix: "+strings.Join(tnet.MixKinds, "|"))
		table    = flag.String("table", "sequential", "forwarding table backend: "+strings.Join(rtable.KindNames(), " | ")+" (or an alias)")
		seed     = flag.Uint64("seed", 1, "campaign seed (drives every per-entity RNG)")
		workers  = flag.Int("workers", 1, "per-tick node parallelism (any value gives identical output)")

		campaign  = flag.Bool("campaign", false, "run a chaos campaign on -topo/-size")
		flaps     = flag.Int("flaps", 4, "campaign: scheduled link flaps")
		partition = flag.Bool("partition", true, "campaign: one partition/heal")
		crashes   = flag.Int("crashes", 1, "campaign: node crash/restart cycles")
		storms    = flag.Int("storms", 1, "campaign: poison storms")
		watch     = flag.Bool("watch-metrics", false, "sample FIB metrics every tick to bound count-to-infinity (slow)")

		forensics = flag.String("forensics-out", "", "directory for replayable forensics bundles")
		inject    = flag.Bool("inject-violation", false, "deliberately blackhole a stub route before the verdict sweep (expected verdict: FAIL)")

		csvPath  = flag.String("csv", "", "also write the report as CSV to this file")
		jsonPath = flag.String("json", "", "also write the report as JSON to this file")
	)
	var prof cliutil.Profiling
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	opt := tnet.Options{
		Mix:          *mix,
		Seed:         *seed,
		Workers:      *workers,
		ForensicsDir: *forensics,
		WatchMetrics: *watch,
	}
	kind, err := rtable.ParseKind(*table)
	if err != nil {
		fatal(err)
	}
	opt.Table = kind

	if *sizes != "" {
		sz, err := cliutil.ParseSizes(*sizes)
		if err != nil {
			fatal(fmt.Errorf("-sizes: %w", err))
		}
		pts, err := tnet.ConvergenceCurve(*topoKind, sz, opt)
		if err != nil {
			fatal(err)
		}
		if err := tnet.WriteCurvesText(os.Stdout, pts); err != nil {
			fatal(err)
		}
		writeFile(*csvPath, func(f *os.File) error { return tnet.WriteCurvesCSV(f, pts) })
		writeFile(*jsonPath, func(f *os.File) error { return tnet.WriteCurvesJSON(f, pts) })
		for _, p := range pts {
			if !p.Converged {
				return 1
			}
		}
		return 0
	}

	if !*campaign {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -campaign or -sizes (see -h)")
		return 2
	}
	topo, err := tnet.Generate(*topoKind, *size, *seed)
	if err != nil {
		fatal(err)
	}
	m, err := tnet.NewMesh(topo, opt)
	if err != nil {
		fatal(err)
	}
	rep := tnet.RunCampaign(m, tnet.CampaignOptions{
		Flaps:           *flaps,
		Partition:       *partition,
		Crashes:         *crashes,
		Storms:          *storms,
		InjectViolation: *inject,
	})
	if err := rep.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	writeFile(*csvPath, func(f *os.File) error { return rep.WriteCSV(f) })
	writeFile(*jsonPath, func(f *os.File) error { return rep.WriteJSON(f) })
	if rep.Verdict != "PASS" {
		return 1
	}
	return 0
}

func writeFile(path string, write func(*os.File) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tacotopo:", err)
	os.Exit(2)
}

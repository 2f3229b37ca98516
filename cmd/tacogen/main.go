// Command tacogen is the processor design tool of the TACO flow (paper
// reference [14]): from one architecture instance it generates the
// top-level description files for all three development models —
// synthesis (VHDL), simulation (JSON) and physical estimation (Matlab).
//
// Usage:
//
//	tacogen [-config 3bus3fu] [-table tree] [-model vhdl|json|matlab|all] [-dir out]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"taco/internal/cliutil"
	"taco/internal/estimate"
	"taco/internal/fu"
	"taco/internal/gen"
	"taco/internal/linecard"
	"taco/internal/rtable"
)

func main() {
	var (
		config = flag.String("config", "3bus1fu", "architecture: 1bus | 3bus1fu | 3bus3fu")
		table  = flag.String("table", "tree", "routing table: "+strings.Join(rtable.Names(rtable.PaperKinds), " | ")+" (or an alias)")
		model  = flag.String("model", "all", "model: vhdl | library | json | matlab | all")
		dir    = flag.String("dir", "", "write files into this directory instead of stdout")
	)
	var prof cliutil.Profiling
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	kind, err := rtable.ParseKind(*table)
	if err != nil {
		fatal(err)
	}
	cfg, err := cliutil.ConfigByName(*config, kind)
	if err != nil {
		fatal(err)
	}
	m, _, err := fu.NewRouterMachine(cfg, rtable.New(kind), linecard.NewBank(5))
	if err != nil {
		fatal(err)
	}
	models, err := gen.Generate(cfg, m, estimate.Default180nm())
	if err != nil {
		fatal(err)
	}

	emit := func(name, content string) {
		if *dir == "" {
			fmt.Printf("---- %s ----\n%s\n", name, content)
			return
		}
		path := filepath.Join(*dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(content))
	}
	base := strings.ToLower(strings.NewReplacer("/", "_", ",", "_").Replace(cfg.Name))
	if *model == "vhdl" || *model == "all" {
		emit("taco_"+base+".vhd", models.VHDL)
	}
	if *model == "library" || *model == "all" {
		emit("taco_components.vhd", models.Library)
	}
	if *model == "json" || *model == "all" {
		emit("taco_"+base+".json", models.JSON)
	}
	if *model == "matlab" || *model == "all" {
		emit("taco_"+base+".m", models.Matlab)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tacogen:", err)
	os.Exit(1)
}

// Command tacogen is the processor design tool of the TACO flow (paper
// reference [14]): from one architecture instance it generates the
// top-level description files for all three development models —
// synthesis (VHDL), simulation (JSON) and physical estimation (Matlab).
//
// Usage:
//
//	tacogen [-config 3bus3fu] [-table tree] [-model vhdl|library|json|matlab|all] [-dir out]
package main

import (
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cliutil.New("tacogen", stdout, stderr, "config", "table", "cpuprofile", "memprofile")
	model := c.String("model", "all", "model: vhdl | library | json | matlab | all")
	dir := c.String("dir", "", "write files into this directory instead of stdout")
	return c.Run(args, func() error {
		kind, cfg, err := c.Arch()
		if err != nil {
			return err
		}
		m, _, err := fu.NewRouterMachine(cfg, rtable.New(kind), linecard.NewBank(5))
		if err != nil {
			return err
		}
		models, err := gen.Generate(cfg, m, estimate.Default180nm())
		if err != nil {
			return err
		}
		matched := false
		base := strings.ToLower(strings.NewReplacer("/", "_", ",", "_").Replace(cfg.Name))
		for _, f := range []struct{ model, name, content string }{
			{"vhdl", "taco_" + base + ".vhd", models.VHDL},
			{"library", "taco_components.vhd", models.Library},
			{"json", "taco_" + base + ".json", models.JSON},
			{"matlab", "taco_" + base + ".m", models.Matlab},
		} {
			if *model != f.model && *model != "all" {
				continue
			}
			matched = true
			if *dir == "" {
				fmt.Fprintf(stdout, "---- %s ----\n%s\n", f.name, f.content)
				continue
			}
			path := filepath.Join(*dir, f.name)
			if err := os.WriteFile(path, []byte(f.content), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", path, len(f.content))
		}
		if !matched {
			return cliutil.Usage(fmt.Errorf("unknown model %q (want vhdl | library | json | matlab | all)", *model))
		}
		return nil
	})
}

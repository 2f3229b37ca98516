// Command tacogen is the processor design tool of the TACO flow (paper
// reference [14]): from one architecture instance it generates the
// synthesis model — the VHDL top level and the component library, one
// component per unit kind and per RTU backend (the same file for every
// instance). The simulation model is the Go machine (tacosim -describe
// prints its socket map) and the estimation model is internal/estimate.
//
// Usage:
//
//	tacogen [-config 3bus3fu] [-table tree] [-model vhdl|library|all] [-dir out]
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"taco/internal/cliutil"
	"taco/internal/fu"
	"taco/internal/gen"
	"taco/internal/linecard"
	"taco/internal/rtable"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cliutil.New("tacogen", stdout, stderr, "config", "table", "cpuprofile", "memprofile")
	model := c.String("model", "all", "model: vhdl | library | all")
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
		vhdl, err := gen.VHDLTopLevel(cfg, m)
		if err != nil {
			return err
		}
		matched := false
		base := strings.ToLower(strings.NewReplacer("/", "_", ",", "_").Replace(cfg.Name))
		for _, f := range []struct{ model, name, content string }{
			{"vhdl", "taco_" + base + ".vhd", vhdl},
			{"library", "taco_components.vhd", gen.WriteLibrary(cfg, m)},
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
			return cliutil.Usage(fmt.Errorf("unknown model %q (want vhdl | library | all)", *model))
		}
		return nil
	})
}

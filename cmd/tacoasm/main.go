// Command tacoasm assembles, optimizes and disassembles TACO programs.
// With -figure3 it reproduces the paper's Figure 3 code-optimization
// example.
//
// Usage:
//
//	tacoasm -figure3 [-config 3bus1fu]
//	tacoasm -f prog.s [-opt] [-config 1bus] [-o prog.bin]
//	tacoasm -d prog.bin [-config 1bus]
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"taco/internal/asm"
	"taco/internal/cliutil"
	"taco/internal/fu"
	"taco/internal/isa"
	"taco/internal/program"
	"taco/internal/sched"
	"taco/internal/tta"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cliutil.New("tacoasm", stdout, stderr, "f", "config", "cpuprofile", "memprofile")
	figure3 := c.Bool("figure3", false, "reproduce the paper's Figure 3 example")
	dis := c.String("d", "", "binary file to disassemble")
	opt := c.Bool("opt", false, "apply TTA optimizations and bus scheduling")
	out := c.String("o", "", "write encoded program to this file")
	return c.Run(args, func() error {
		cfg, err := cliutil.ConfigByName(c.Config, 0)
		if err != nil {
			return err
		}
		m, err := fu.NewComputeMachine(cfg)
		if err != nil {
			return err
		}
		switch {
		case *figure3:
			return runFigure3(stdout, m, cfg)
		case c.File != "":
			src, err := os.ReadFile(c.File)
			if err != nil {
				return err
			}
			prog, err := asm.Assemble(string(src), m)
			if err != nil {
				return err
			}
			if *opt {
				res, err := sched.Compile(prog, m, sched.AllOptimizations)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "; optimized: %d -> %d moves, %d cycles on %d bus(es)\n",
					res.MovesIn, res.MovesOut, res.Cycles, cfg.Buses)
				prog = res.Program
			}
			fmt.Fprint(stdout, asm.Disassemble(prog, m))
			if *out == "" {
				return nil
			}
			data, err := isa.EncodeProgram(prog)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "; wrote %d bytes to %s\n", len(data), *out)
			return nil
		case *dis != "":
			data, err := os.ReadFile(*dis)
			if err != nil {
				return err
			}
			prog, err := isa.DecodeProgram(data)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, asm.Disassemble(prog, m))
			return nil
		}
		return cliutil.Usage(errors.New("nothing to do: pass -figure3, -f prog.s or -d prog.bin"))
	})
}

func runFigure3(w io.Writer, m *tta.Machine, cfg fu.Config) error {
	const b, c = 5, 6
	f3, err := program.Figure3(m, b, c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 3 — TACO code optimization, a = (b*2 + c)/4 with b=%d, c=%d\n\n", b, c)
	fmt.Fprintf(w, "Non-optimized (%d moves, %d cycles on %d bus(es)):\n%s\n",
		f3.MovesNonOpt, f3.CyclesNonOpt, cfg.Buses, asm.Disassemble(f3.NonOptimized, m))
	fmt.Fprintf(w, "TACO TTA-optimized (%d moves, %d cycles):\n%s\n",
		f3.MovesOpt, f3.CyclesOpt, asm.Disassemble(f3.Optimized, m))
	fmt.Fprintf(w, "moves reduced by %.0f%%, cycles by %.0f%%\n",
		100*(1-float64(f3.MovesOpt)/float64(f3.MovesNonOpt)),
		100*(1-float64(f3.CyclesOpt)/float64(f3.CyclesNonOpt)))
	return nil
}

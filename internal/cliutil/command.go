package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"taco/internal/forensics"
	"taco/internal/fu"
	"taco/internal/rtable"
)

// Command is one tool's flag set plus the values of the shared flags it
// declared. Each tool builds one in its run(args, stdout, stderr) and
// hands its body to Run.
type Command struct {
	*flag.FlagSet
	Stdout, Stderr io.Writer

	Config, Table                            string
	Seed                                     uint64
	Packets, Entries, Workers                int
	Interp, JSON, Hist                       bool
	File, MetricsOut, TraceOut, ForensicsOut string
	cpuProfile, memProfile                   string
}

// New returns the command of tool name, writing to stdout and stderr,
// with the named shared flags declared.
func New(name string, stdout, stderr io.Writer, shared ...string) *Command {
	c := &Command{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError), Stdout: stdout, Stderr: stderr}
	c.SetOutput(stderr)
	for _, s := range shared {
		c.declare(s)
	}
	return c
}

// declare is the one declaration of every flag more than one tool has:
// its name, type, default and help text. -packets is declared by
// PacketsFlag instead, because its default is the tool's.
func (c *Command) declare(name string) {
	switch name {
	case "config":
		c.StringVar(&c.Config, name, "3bus1fu", "architecture: 1bus | 3bus1fu | 3bus3fu")
	case "table":
		c.StringVar(&c.Table, name, "tree", "routing table: "+strings.Join(rtable.KindNames(), " | ")+" (or an alias)")
	case "seed":
		c.Uint64Var(&c.Seed, name, 2003, "seed of every generated table, workload and campaign (runs replay exactly)")
	case "entries":
		c.IntVar(&c.Entries, name, 100, "routing-table entries")
	case "workers":
		c.IntVar(&c.Workers, name, runtime.GOMAXPROCS(0), "parallel workers (the output is identical for any value)")
	case "interp":
		c.BoolVar(&c.Interp, name, false, "simulate on the reference interpreter instead of the compiled fast path (bit-identical, slower)")
	case "json":
		c.BoolVar(&c.JSON, name, false, "print the report as JSON on stdout instead of text")
	case "hist":
		c.BoolVar(&c.Hist, name, false, "print the per-packet latency histogram summary")
	case "f":
		c.StringVar(&c.File, name, "", "TACO assembly source file")
	case "metrics-out":
		c.StringVar(&c.MetricsOut, name, "", "write the run's Prometheus text exposition to this file")
	case "trace-out":
		c.StringVar(&c.TraceOut, name, "", "write a Chrome trace-event (Perfetto) file of the run")
	case "forensics-out":
		c.StringVar(&c.ForensicsOut, name, "",
			"arm the flight recorder and write a forensic bundle (replayable with tacoreplay) into this directory for every failure")
	case "cpuprofile":
		c.StringVar(&c.cpuProfile, name, "", "write a CPU profile to this file")
	case "memprofile":
		c.StringVar(&c.memProfile, name, "", "write a heap profile to this file on exit")
	default:
		panic("cliutil: no shared flag -" + name)
	}
}

// PacketsFlag declares -packets with the tool's default, since a batch
// is one evaluated instance in one tool and one forwarded batch in another.
func (c *Command) PacketsFlag(def int) {
	c.IntVar(&c.Packets, "packets", def, "datagrams to simulate per instance, batch or soak campaign")
}

// Arch resolves -table and -config into the table kind and the
// architecture instance built around it.
func (c *Command) Arch() (rtable.Kind, fu.Config, error) {
	kind, err := rtable.ParseKind(c.Table)
	if err != nil {
		return 0, fu.Config{}, Usage(err)
	}
	cfg, err := ConfigByName(c.Config, kind)
	return kind, cfg, err
}

// Run parses args and runs body under the requested profiles, which are
// written however body ends. The exit status is 0 after -h or when body
// returns nil, 2 after a bad flag or a Usage error, and 1 after any
// other error; errors are printed after the tool's name.
func (c *Command) Run(args []string, body func() error) int {
	if err := c.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // flag has printed the error and the usage
	}
	err := c.profile(body)
	if err == nil {
		return 0
	}
	fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name(), err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// profile runs body inside the -cpuprofile window and writes the
// -memprofile snapshot after it; a failed profile write only warns.
func (c *Command) profile(body func() error) error {
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(c.Stderr, "cpuprofile:", err)
			}
		}()
	}
	err := body()
	if werr := WriteFile(c.memProfile, func(w io.Writer) error {
		runtime.GC() // settle live-heap accounting before the snapshot
		return pprof.WriteHeapProfile(w)
	}); werr != nil {
		fmt.Fprintln(c.Stderr, "memprofile:", werr)
	}
	return err
}

// usageError marks a flag value that names nothing: exit status 2.
type usageError struct{ error }

// Usage marks err as a usage mistake, which Run answers with exit 2.
func Usage(err error) error { return usageError{err} }

// WriteFile creates path, lets write fill it and closes it, returning
// the first error. An empty path writes nothing.
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SaveBundle saves b into dir and says on stderr where it went and how
// to replay it.
func (c *Command) SaveBundle(b *forensics.Bundle, dir string) {
	path, err := b.Save(dir)
	if err != nil {
		fmt.Fprintf(c.Stderr, "%s: forensics capture failed: %v\n", c.Name(), err)
		return
	}
	fmt.Fprintf(c.Stderr, "%s: forensic bundle written: %s\n%[1]s: replay with: tacoreplay -bundle %[2]s\n", c.Name(), path)
}

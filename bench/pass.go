package main

import (
	"bufio"
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// passResult is what one (workload, pass) child process measured.
type passResult struct {
	Workload string
	Seed     uint64
	// SetupS runs from the child's entry to the start of the timed
	// window: input generation, table builds, the post-build checks and
	// the one warm-up iteration that fills lazy structures.
	SetupS float64
	// IterMS holds every timed iteration's wall time.
	IterMS []float64
	// TimedS is the sum of IterMS in seconds; bookkeeping between
	// iterations is off the clock.
	TimedS      float64
	Ops, Failed int64
	Failures    []string `json:",omitempty"`
	// Mallocs and AllocBytes are runtime.MemStats deltas over the timed
	// window (digest bookkeeping included: under 0.2 % on every workload).
	Mallocs, AllocBytes uint64
	SimCycles           int64   `json:",omitempty"`
	CyclesPerPacket     float64 `json:",omitempty"`
	ClockErr            float64 `json:",omitempty"`
	PeakRSSMB           float64
	Digest              string
}

// runPass is the child: set up, warm up, iterate until passDur has
// elapsed and at least one iteration has completed.
func runPass(name string, seed uint64, passDur time.Duration) (*passResult, error) {
	start := time.Now()
	tmp, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	inst, err := setupWorkload(name, seed, tmp)
	if err != nil {
		return nil, err
	}
	if err := inst.iter(); err != nil {
		return nil, err
	}
	res := &passResult{Workload: name, Seed: seed, Digest: inst.settle().Digest}
	res.SetupS = time.Since(start).Seconds()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(passDur)
	for len(res.IterMS) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		err := inst.iter()
		dt := time.Since(t0)
		if errors.Is(err, errStreamExhausted) && len(res.IterMS) > 0 {
			break
		}
		if err != nil {
			return nil, err
		}
		out := inst.settle()
		res.IterMS = append(res.IterMS, float64(dt.Nanoseconds())/1e6)
		res.TimedS += dt.Seconds()
		res.Ops += out.Ops
		res.Failed += out.Failed
		res.Failures = append(res.Failures, out.Failures...)
		res.SimCycles += out.SimCycles
		res.CyclesPerPacket, res.ClockErr = out.CyclesPerPacket, out.ClockErr
		if out.Digest != res.Digest {
			res.Failed++
			res.Failures = append(res.Failures, "iteration digest "+out.Digest+" differs from the warm-up's "+res.Digest)
		}
	}
	runtime.ReadMemStats(&after)
	res.Mallocs = after.Mallocs - before.Mallocs
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if inst.finish != nil {
		fails := inst.finish()
		res.Failed += int64(len(fails))
		res.Failures = append(res.Failures, fails...)
	}
	if len(res.Failures) > 8 {
		res.Failures = res.Failures[:8]
	}
	res.PeakRSSMB = peakRSSMB(after.Sys)
	return res, nil
}

// peakRSSMB reads the process's resident high-water mark (VmHWM) in
// MiB; where /proc has none it falls back to the bytes the Go runtime
// obtained from the OS.
func peakRSSMB(sys uint64) float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) != 2 || fields[1] != "kB" {
					break
				}
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(sys) / (1 << 20)
}

package dse

import (
	"context"
	"fmt"
	"reflect"

	"taco/internal/core"
)

// This file is the design-space-exploration side of the compiled fast
// path's oracle protocol. Sweep bodies may run compiled (Instance.Sim
// .Compiled) for wall-clock speed; the functions here re-evaluate
// selected instances with the interpreter and fail loudly on any
// divergence, so a lowering bug can never silently alter Table 1 or an
// exploration verdict. ExploreCtx applies the check automatically to
// the winning configuration; sweeps opt in through ReplayInterpreted.

// ReplayInterpreted re-evaluates every stride-th instance (always
// including the first) with the interpreter — Sim.Compiled forced off —
// and compares each result field-for-field against got, the metrics an
// earlier (typically compiled) evaluation of insts produced. A
// mismatch, or a replay that errors, returns a non-nil error naming
// the diverging instance. stride <= 1 replays everything; workers
// follows the evaluateInstances convention.
func ReplayInterpreted(ctx context.Context, insts []Instance, got []core.Metrics, stride, workers int) error {
	if len(got) != len(insts) {
		return fmt.Errorf("dse: replay: %d results for %d instances", len(got), len(insts))
	}
	if stride <= 1 {
		stride = 1
	}
	var (
		idx     []int
		replays []Instance
	)
	for i := 0; i < len(insts); i += stride {
		r := insts[i]
		r.Sim.Compiled = false
		idx = append(idx, i)
		replays = append(replays, r)
	}
	results, errs, _, err := evaluateInstances(ctx, replays, workers)
	if err != nil {
		return err
	}
	for k, i := range idx {
		if errs[k] != nil {
			return fmt.Errorf("dse: interpreter replay of %s: %w", insts[i].Label, errs[k])
		}
		if err := diffMetrics(insts[i].Label, results[k], got[i]); err != nil {
			return captureDivergence(insts[i], err)
		}
	}
	return nil
}

// captureDivergence writes a compiled-divergence forensic bundle for a
// failed oracle comparison (SimOptions.ForensicsDir only) and wraps the
// divergence error with the bundle path. Scaled (model-based) instances
// have no cycle-level replay, so they pass through unchanged.
func captureDivergence(inst Instance, divergence error) error {
	if inst.Sim.ForensicsDir == "" || inst.Scale != nil {
		return divergence
	}
	b, err := core.DivergenceBundle(inst.Cfg, inst.Cons, inst.Sim, divergence.Error())
	if err != nil {
		return divergence
	}
	return b.Capture(inst.Sim.ForensicsDir, divergence)
}

// diffMetrics compares an interpreter-evaluated Metrics against the
// value under test and describes the first diverging field. The
// compiled fast path's contract is bit-identity, so the comparison is
// exact — no tolerances.
func diffMetrics(label string, interp, got core.Metrics) error {
	if reflect.DeepEqual(interp, got) {
		return nil
	}
	detail := ""
	switch {
	case interp.CyclesPerPacket != got.CyclesPerPacket:
		detail = fmt.Sprintf("cycles/packet %v vs %v", got.CyclesPerPacket, interp.CyclesPerPacket)
	case interp.BusUtilization != got.BusUtilization:
		detail = fmt.Sprintf("bus utilization %v vs %v", got.BusUtilization, interp.BusUtilization)
	case interp.RequiredClockHz != got.RequiredClockHz:
		detail = fmt.Sprintf("required clock %v vs %v", got.RequiredClockHz, interp.RequiredClockHz)
	case !reflect.DeepEqual(interp.Drops, got.Drops):
		detail = fmt.Sprintf("drops %v vs %v", got.Drops, interp.Drops)
	case !reflect.DeepEqual(interp.LineCards, got.LineCards):
		detail = "line card statistics differ"
	default:
		detail = fmt.Sprintf("got %+v, interpreter %+v", got, interp)
	}
	return fmt.Errorf("dse: compiled fast path diverged from interpreter on %s: %s", label, detail)
}

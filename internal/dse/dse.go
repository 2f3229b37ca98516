// Package dse implements design-space exploration over TACO
// architecture instances: the parameter sweeps behind the repository's
// extension experiments (table size, bus count, FU replication, datagram
// size) and the automated constraint-driven exploration the paper lists
// as future work ("a tool that automates the design space exploration
// phase, which based on some heuristics will suggest good solutions").
package dse

import "taco/internal/core"

// Point is one sweep sample.
type Point struct {
	X       float64 // the swept parameter's value
	Metrics core.Metrics
	// Err is the instance's evaluation failure (a stalled simulation,
	// an infeasible table build), empty on success. A failed point keeps
	// its Metrics.Kind and Metrics.Config for attribution, but its other
	// metrics are zero; sweeps degrade gracefully rather than abort, so
	// one pathological instance cannot take down a whole exploration.
	Err string `json:",omitempty"`
	// Bundle is the forensic bundle captured for this point's failure
	// (SimOptions.ForensicsDir only) — the cmd/tacoreplay repro artifact.
	Bundle string `json:",omitempty"`
	// WallNS is the instance's wall-clock evaluation time in
	// nanoseconds. Populated only under WithTiming: wall times are
	// nondeterministic, so default exports stay byte-identical across
	// worker counts.
	WallNS int64 `json:",omitempty"`
}

// Candidate is an explored instance with its evaluation.
type Candidate struct {
	Metrics core.Metrics
	// Score is core.Score of Metrics (lower is better): power among
	// acceptable instances, required clock among unacceptable ones.
	Score float64
}

// ExploreResult is the outcome of the automated exploration.
type ExploreResult struct {
	// Ranked lists every evaluated candidate, best first.
	Ranked []Candidate
	// Best is the recommended instance; ok is false when nothing is
	// acceptable under the constraints.
	Best Candidate
	OK   bool
}

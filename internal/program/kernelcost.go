package program

import "taco/internal/rtable"

// ModelPerProbe converts a calibrated balanced-tree per-probe cycle
// cost into the modelled cost for a kind without a forwarding kernel,
// by the backend's registered StepFactor. ok is false for kinds that
// calibrate directly from their own generated kernel.
func ModelPerProbe(kind rtable.Kind, treePerProbe float64) (perProbe float64, ok bool) {
	f := rtable.Backends[kind].StepFactor
	return treePerProbe * f, f != 0
}

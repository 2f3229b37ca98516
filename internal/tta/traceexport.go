package tta

import (
	"fmt"

	"taco/internal/obs"
)

// Trace-export track layout: one process per component class, one
// thread per bus / per functional unit.
const (
	tracePIDBuses = 1
	tracePIDUnits = 2
)

// TraceHook returns a function that converts events of m's flight
// recorder — one cycle's worth at a time from a stepped run — into
// Chrome trace events on tw: every encoded move becomes a one-cycle
// slice on its bus's track (guard-failed moves are marked
// executed=false), and every trigger-socket write also becomes a
// one-cycle slice on the triggered unit's track. Events that are not
// moves (line-card push/pop, the watchdog's verdict) have no track and
// are skipped. One simulated cycle maps to one microsecond of trace
// time, so timestamps are monotonically non-decreasing in emission
// order.
//
// The hook also emits the track-naming metadata immediately, so the
// resulting file is self-describing when opened in Perfetto.
func (m *Machine) TraceHook(tw *obs.TraceWriter) func([]obs.RecEvent) {
	tw.ProcessName(tracePIDBuses, m.name+" buses")
	tw.ProcessName(tracePIDUnits, m.name+" functional units")
	for b := 0; b < m.buses; b++ {
		tw.ThreadName(tracePIDBuses, b, fmt.Sprintf("bus%d", b))
	}
	for u, unit := range m.units {
		tw.ThreadName(tracePIDUnits, u, unit.Ports().Name)
	}
	names := m.SocketNames()
	return func(events []obs.RecEvent) {
		for _, e := range events {
			switch e.Kind {
			case obs.EvMove, obs.EvGuardFalse, obs.EvTrigger, obs.EvJump, obs.EvHalt:
			default:
				continue
			}
			dst := obs.SocketLabel(e.Dst, names)
			args := map[string]any{"value": e.Value}
			if e.Kind == obs.EvGuardFalse {
				args["executed"] = false
			}
			tw.Complete(tracePIDBuses, int(e.Bus), obs.SocketLabel(e.Src, names)+" -> "+dst, e.Cycle, 1, args)
			if e.Kind == obs.EvTrigger {
				tw.Complete(tracePIDUnits, m.sockets[e.Dst-1].unit, dst, e.Cycle, 1, nil)
			}
		}
	}
}

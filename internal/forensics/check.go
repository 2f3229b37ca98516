package forensics

import (
	"errors"
	"fmt"
	"slices"

	"taco/internal/obs"
)

// EventDiff pinpoints the first divergence between two recorded event
// streams: the index where they differ, and the event each side holds
// there (nil when that side's stream ended first).
type EventDiff struct {
	Index int
	A, B  *obs.RecEvent
}

// DiffEvents compares two event streams element-wise and returns the
// first divergence, or nil when they are identical. This is the core of
// tacoreplay -diff: bit-identical paths produce a nil diff.
func DiffEvents(a, b []obs.RecEvent) *EventDiff {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return &EventDiff{Index: i, A: &a[i], B: &b[i]}
		}
	}
	if len(a) != len(b) {
		d := &EventDiff{Index: n}
		if n < len(a) {
			d.A = &a[n]
		}
		if n < len(b) {
			d.B = &b[n]
		}
		return d
	}
	return nil
}

// Describe renders the divergence for humans, naming the two sides.
func (d *EventDiff) Describe(aName, bName string, names []string) string {
	fmtSide := func(e *obs.RecEvent) string {
		if e == nil {
			return "(stream ended)"
		}
		return e.Format(names)
	}
	return fmt.Sprintf("first divergence at event %d:\n  %-12s %s\n  %-12s %s",
		d.Index, aName+":", fmtSide(d.A), bName+":", fmtSide(d.B))
}

// CheckReproduction asserts that a replay reproduced the bundle's
// recorded failure: same stall cause and cycle for stall kinds, the
// same fates/drop counters for differential kinds — and, for a fate
// divergence, a replay that still disagrees with the golden router by
// router.Compare, output bytes included — the same terminal error for
// machine kinds. A nil return means the bundle is a faithful repro; an
// error explains the mismatch.
func CheckReproduction(b *Bundle, res *ReplayResult) error {
	switch b.Kind {
	case KindStall:
		if res.Stall == nil {
			return fmt.Errorf("bundle records a stall (%s at cycle %d) but the replay completed (err=%q)",
				b.StallCause, b.StallCycle, res.Err)
		}
		if got := res.Stall.Cause.String(); got != b.StallCause {
			return fmt.Errorf("stall cause mismatch: replay %q, bundle %q", got, b.StallCause)
		}
		if res.Stall.Cycles != b.StallCycle {
			return fmt.Errorf("stall cycle mismatch: replay %d, bundle %d", res.Stall.Cycles, b.StallCycle)
		}
		if res.Stall.PC != b.PC {
			return fmt.Errorf("stall pc mismatch: replay %d, bundle %d", res.Stall.PC, b.PC)
		}
		return diffTailSuffix(b, res.Tail)
	case KindCompiledDivergence:
		// The recorded divergence is between the two step paths, not
		// against the golden reference, so a single-path replay can only
		// sanity-check that the run executes; the two-path comparison is
		// tacoreplay -diff's job (replay with Path=false and Path=true,
		// DiffEvents over the tails).
		if res.Err != "" && res.Stall == nil {
			return fmt.Errorf("compiled-divergence bundle failed to replay: %s", res.Err)
		}
		return nil
	case KindFateDivergence:
		if res.Stall != nil {
			return fmt.Errorf("bundle records a fate divergence but the replay stalled: %s", res.Stall.Error())
		}
		if res.Err != "" {
			return fmt.Errorf("bundle records a fate divergence but the replay errored: %s", res.Err)
		}
		if err := diffFates("got", Fates(res.Outcomes), b.GotFates); err != nil {
			return err
		}
		if err := diffFates("want", Fates(res.Want), b.WantFates); err != nil {
			return err
		}
		if len(res.Diff.Seqs) == 0 {
			return errors.New("bundle records a divergence but replayed fates match the golden reference")
		}
		return nil
	case KindNetInvariant:
		// The bundle captures one node's FIB and the probe datagram that
		// witnessed a network invariant violation. The replay must produce
		// exactly the recorded fate (GotFates); WantFates holds what the
		// whole-network oracle required, which by construction differs.
		if res.Stall != nil {
			return fmt.Errorf("bundle records a net-invariant violation but the replay stalled: %s", res.Stall.Error())
		}
		if res.Err != "" {
			return fmt.Errorf("bundle records a net-invariant violation but the replay errored: %s", res.Err)
		}
		if err := diffFates("got", Fates(res.Outcomes), b.GotFates); err != nil {
			return err
		}
		if slices.Equal(b.GotFates, b.WantFates) {
			return errors.New("bundle records a net-invariant violation but its fates match the oracle")
		}
		return nil
	case KindDropAudit:
		if res.Stall != nil {
			return fmt.Errorf("bundle records a drop-audit failure but the replay stalled: %s", res.Stall.Error())
		}
		if res.Err != "" {
			return fmt.Errorf("bundle records a drop-audit failure but the replay errored: %s", res.Err)
		}
		if b.Unexplained != res.Unexplained {
			return fmt.Errorf("unexplained drops mismatch: replay %d, bundle %d", res.Unexplained, b.Unexplained)
		}
		return diffDrops("got", DropMaps(res.Outcomes), b.GotDrops)
	case KindMachineStall:
		if res.Err != b.Err {
			return fmt.Errorf("machine error mismatch: replay %q, bundle %q", res.Err, b.Err)
		}
		if res.Cycles != b.StallCycle {
			return fmt.Errorf("machine cycle mismatch: replay %d, bundle %d", res.Cycles, b.StallCycle)
		}
		if res.PC != b.PC {
			return fmt.Errorf("machine pc mismatch: replay %d, bundle %d", res.PC, b.PC)
		}
		return diffTailSuffix(b, res.Tail)
	default:
		return fmt.Errorf("unknown bundle kind %q", b.Kind)
	}
}

// diffTailSuffix checks the replay's retained events against the
// bundle's captured tail. The bundle's tail is the run's event-stream
// suffix (its ring may have wrapped), and a replay with a larger ring
// retains more history — so the replay must end with the captured tail,
// not equal it.
func diffTailSuffix(b *Bundle, replayTail []obs.RecEvent) error {
	n := len(b.Tail)
	if n == 0 {
		return nil
	}
	if len(replayTail) < n {
		return fmt.Errorf("recorder tail mismatch: replay retained %d events, bundle captured %d",
			len(replayTail), n)
	}
	if d := DiffEvents(replayTail[len(replayTail)-n:], b.Tail); d != nil {
		return fmt.Errorf("recorder tail mismatch: %s", d.Describe("replay", "bundle", b.SocketNames))
	}
	return nil
}

func diffFates(side string, replayed, recorded []Fate) error {
	if len(recorded) == 0 {
		return nil // bundle chose not to record this side
	}
	if len(replayed) != len(recorded) {
		return fmt.Errorf("%s fates count mismatch: replay %d, bundle %d", side, len(replayed), len(recorded))
	}
	for i := range replayed {
		if replayed[i] != recorded[i] {
			return fmt.Errorf("%s fate mismatch for seq %d: replay %s/%d, bundle %s/%d",
				side, recorded[i].Seq, replayed[i].Action, replayed[i].Iface, recorded[i].Action, recorded[i].Iface)
		}
	}
	return nil
}

func diffDrops(side string, replayed, recorded []map[string]int64) error {
	if len(recorded) == 0 {
		return nil
	}
	if len(replayed) != len(recorded) {
		return fmt.Errorf("%s drop-counter card count mismatch: replay %d, bundle %d", side, len(replayed), len(recorded))
	}
	for i := range replayed {
		if len(replayed[i]) != len(recorded[i]) {
			return fmt.Errorf("%s drops mismatch on card %d: replay %v, bundle %v", side, i, replayed[i], recorded[i])
		}
		for k, v := range replayed[i] {
			if recorded[i][k] != v {
				return fmt.Errorf("%s drops mismatch on card %d reason %s: replay %d, bundle %d",
					side, i, k, v, recorded[i][k])
			}
		}
	}
	return nil
}

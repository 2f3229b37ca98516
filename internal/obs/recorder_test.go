package obs_test

import (
	"math"
	"reflect"
	"testing"

	"taco/internal/obs"
)

// TestRecorderSince: the events after a Total() mark come back oldest
// first whether or not the span crosses the ring's wrap point, a span
// the ring has partly overwritten is clamped to what it retains, and
// the visit allocates nothing — it runs once per cycle of a stepped run.
func TestRecorderSince(t *testing.T) {
	const capacity = 8
	rec := obs.NewFlightRecorder(capacity)
	var next uint32
	record := func(n int) {
		for i := 0; i < n; i++ {
			rec.SetCycle(int64(next))
			rec.Record(obs.RecEvent{Value: next})
			next++
		}
	}
	since := func(mark uint64) []uint32 {
		var got []uint32
		rec.Since(mark, func(e obs.RecEvent) {
			if e.Cycle != int64(e.Value) {
				t.Errorf("event %d stamped cycle %d", e.Value, e.Cycle)
			}
			got = append(got, e.Value)
		})
		return got
	}

	if got := since(rec.Total()); got != nil {
		t.Errorf("empty recorder visited %v", got)
	}
	record(5)
	mark := rec.Total()
	if got := since(mark); got != nil {
		t.Errorf("nothing recorded since the mark, visited %v", got)
	}
	record(6) // events 5..10: the ring wraps after event 7
	if got, want := since(mark), []uint32{5, 6, 7, 8, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("across the wrap: %v, want %v", got, want)
	}
	if got, want := since(rec.Total()-2), []uint32{9, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("last two: %v, want %v", got, want)
	}
	// A mark older than the ring: only the retained events, in order —
	// the same ones Tail returns.
	record(7) // events 11..17
	var tail []uint32
	for _, e := range rec.Tail() {
		tail = append(tail, e.Value)
	}
	if got := since(mark); len(got) != capacity || !reflect.DeepEqual(got, tail) {
		t.Errorf("clamped span: %v, want the tail %v", got, tail)
	}

	var sum uint32
	visit := func(e obs.RecEvent) { sum += e.Value }
	if avg := testing.AllocsPerRun(100, func() {
		m := rec.Total()
		record(3)
		rec.Since(m, visit)
	}); avg != 0 {
		t.Errorf("Since allocates %.1f times per call", avg)
	}
}

// TestRecordStoresEveryField: Record writes an event into its ring slot
// field by field, so a field it forgot would come back zero. Events
// whose seven fields are all distinct and non-zero — Src at -1, Bus at
// its maximum — are recorded past a wrap, and Tail and Since must return
// each field for field, stamped with its cycle.
func TestRecordStoresEveryField(t *testing.T) {
	const capacity, n = 4, 11
	event := func(i int) obs.RecEvent {
		return obs.RecEvent{
			Cycle: 1000 + int64(i),
			Value: 0xdead0000 + uint32(i),
			PC:    100 + int32(i),
			Src:   -1,
			Dst:   200 + int32(i),
			Bus:   math.MaxInt16 - int16(i),
			Kind:  obs.EvTrigger + uint8(i%2),
		}
	}
	rec := obs.NewFlightRecorder(capacity)
	for i := 0; i < n; i++ {
		e := event(i)
		rec.SetCycle(e.Cycle)
		e.Cycle = 0 // Record stamps it from SetCycle
		rec.Record(e)
	}
	var want []obs.RecEvent
	for i := n - capacity; i < n; i++ {
		want = append(want, event(i))
	}
	if got := rec.Tail(); !reflect.DeepEqual(got, want) {
		t.Errorf("Tail:\n got %+v\nwant %+v", got, want)
	}
	var since []obs.RecEvent
	rec.Since(0, func(e obs.RecEvent) { since = append(since, e) })
	if !reflect.DeepEqual(since, want) {
		t.Errorf("Since:\n got %+v\nwant %+v", since, want)
	}
}

package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// EventWriter streams newline-delimited JSON (NDJSON) events — the
// structured companion to the Prometheus exposition: one self-contained
// JSON object per line, written incrementally, so long-running live
// reporters (tacosim -stat-every) never buffer and a consumer can tail
// the stream.
type EventWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewEventWriter starts an NDJSON stream on w.
func NewEventWriter(w io.Writer) *EventWriter {
	bw := bufio.NewWriter(w)
	return &EventWriter{w: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one event object followed by a newline.
func (e *EventWriter) Emit(v any) {
	if e.err != nil {
		return
	}
	if err := e.enc.Encode(v); err != nil {
		e.err = err
	}
}

// Flush pushes buffered events to the underlying writer. Live
// reporters flush after every event; batch producers flush once.
func (e *EventWriter) Flush() error {
	if e.err != nil {
		return e.err
	}
	e.err = e.w.Flush()
	return e.err
}

// StatEvent is the periodic live-reporter event (tacosim -stat-every):
// a progress sample of the running machine.
type StatEvent struct {
	Event          string  // "stat" while running, "done" at exit
	Cycles         int64   // cycles executed so far
	PC             int     // current program counter
	MovesExecuted  int64   // moves whose guard held so far
	BusUtilization float64 // executed moves / total slots so far
}

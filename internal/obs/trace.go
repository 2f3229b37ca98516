package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// TraceWriter streams Chrome trace-event JSON (the format read by
// Perfetto and chrome://tracing): a single object whose "traceEvents"
// array holds one event per emitted slice, plus metadata events naming
// the tracks. Events are written incrementally, so arbitrarily long
// runs never buffer the whole trace in memory.
//
// The caller supplies process/thread coordinates: a pid groups related
// tracks (e.g. "buses"), a tid is one track within the group (e.g. one
// bus). Timestamps are in the trace's microsecond unit; the machine
// adapter maps one simulated cycle to one microsecond.
type TraceWriter struct {
	w      *bufio.Writer
	err    error
	events int
	closed bool
}

// traceEvent is the wire form of one trace event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTraceWriter starts a trace stream on w. Call Close to terminate
// the JSON document.
func NewTraceWriter(w io.Writer) *TraceWriter {
	tw := &TraceWriter{w: bufio.NewWriter(w)}
	_, tw.err = tw.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return tw
}

func (t *TraceWriter) emit(e traceEvent) {
	if t.err != nil || t.closed {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	if t.events > 0 {
		if err := t.w.WriteByte(','); err != nil {
			t.err = err
			return
		}
	}
	if _, err := t.w.Write(data); err != nil {
		t.err = err
		return
	}
	t.events++
}

// ProcessName emits the metadata event naming a process (track group).
func (t *TraceWriter) ProcessName(pid int, name string) {
	t.emit(traceEvent{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name}})
}

// ThreadName emits the metadata event naming a thread (track).
func (t *TraceWriter) ThreadName(pid, tid int, name string) {
	t.emit(traceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name}})
}

// Complete emits a complete ("X") slice of dur microseconds at ts on
// track (pid, tid). args may be nil.
func (t *TraceWriter) Complete(pid, tid int, name string, ts, dur int64, args map[string]any) {
	t.emit(traceEvent{Name: name, Ph: "X", PID: pid, TID: tid, TS: ts, Dur: dur, Args: args})
}

// Events returns the number of events emitted so far.
func (t *TraceWriter) Events() int { return t.events }

// Close terminates the JSON document and flushes buffered output. It
// does not close the underlying writer.
func (t *TraceWriter) Close() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err != nil {
		return t.err
	}
	if _, err := t.w.WriteString("]}\n"); err != nil {
		t.err = err
		return err
	}
	if err := t.w.Flush(); err != nil {
		t.err = err
		return err
	}
	return nil
}

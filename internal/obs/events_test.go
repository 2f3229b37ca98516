package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestEventWriterNDJSON(t *testing.T) {
	var b strings.Builder
	ev := NewEventWriter(&b)
	for i := 0; i < 3; i++ {
		ev.Emit(StatEvent{
			Event:          "stat",
			Cycles:         int64(i+1) * 100,
			PC:             i,
			MovesExecuted:  int64(i) * 40,
			BusUtilization: 0.25 * float64(i),
		})
	}
	ev.Emit(StatEvent{Event: "done", Cycles: 400})
	if err := ev.Flush(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("stream does not end in a newline")
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	// Each line is a self-contained JSON object — the tail-ability
	// contract: a consumer can decode any prefix of the stream.
	for i, line := range lines {
		var e StatEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if i < 3 && e.Event != "stat" {
			t.Fatalf("line %d event %q, want stat", i, e.Event)
		}
	}
	var last StatEvent
	if err := json.Unmarshal([]byte(lines[3]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Event != "done" || last.Cycles != 400 {
		t.Fatalf("final event %+v", last)
	}
}

// failWriter errors after n successful writes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestEventWriterError: the first failure latches, later emits are
// dropped without panicking, and Flush reports the original error.
func TestEventWriterError(t *testing.T) {
	ev := NewEventWriter(&failWriter{n: 0})
	// The bufio layer absorbs small events; force the flush to fail.
	ev.Emit(StatEvent{Event: "stat"})
	if err := ev.Flush(); err == nil {
		t.Fatalf("Flush on a failing writer returned nil")
	}
	ev.Emit(StatEvent{Event: "stat"})
	if err := ev.Flush(); err == nil {
		t.Fatalf("second Flush cleared the error")
	}
}

package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/tta"
	"taco/internal/workload"
)

// goldenRouter builds a forwarding run ready to go: the standard
// balanced-tree 3BUS/1FU instance over the deterministic workload the
// repo's other suites use.
func goldenRouter(t *testing.T) (*router.TACO, []workload.Packet) {
	t.Helper()
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: 100, Ifaces: 4, Seed: 1})
	tbl := rtable.New(rtable.BalancedTree)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		t.Fatal(err)
	}
	tr, err := router.NewTACO(fu.Config3Bus1FU(rtable.BalancedTree), tbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := workload.GenerateTraffic(routes, workload.PaperTrafficSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	return tr, pkts
}

func runRouter(t *testing.T, tr *router.TACO, pkts []workload.Packet) {
	t.Helper()
	runRouterStepped(t, tr, pkts, nil)
}

// runRouterStepped is runRouter with every cycle reported to onCycle
// (nil: the batch run).
func runRouterStepped(t *testing.T, tr *router.TACO, pkts []workload.Packet, onCycle tta.CycleFunc) {
	t.Helper()
	for i, pk := range pkts {
		tr.Deliver(i%4, linecard.Datagram{Data: pk.Data, Seq: pk.Seq})
	}
	if _, err := tr.RunStepped(int64(len(pkts)), 10_000_000, onCycle); err != nil {
		t.Fatal(err)
	}
}

// total sums one counter vector.
func total(s []int64) int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// TestCountersSumToStats is the tentpole invariant: the fine-grained
// counters partition the machine's aggregate Stats exactly on a golden
// run, so per-component numbers can be trusted as a decomposition of
// the paper's metrics.
func TestCountersSumToStats(t *testing.T) {
	tr, pkts := goldenRouter(t)
	runRouter(t, tr, pkts)
	c, st := tr.Machine.Counters(), tr.Machine.Stats()

	if c.Cycles != st.Cycles {
		t.Errorf("Counters.Cycles = %d, Stats.Cycles = %d", c.Cycles, st.Cycles)
	}
	if got := total(c.BusEncoded); got != st.SlotsEncoded {
		t.Errorf("sum(BusEncoded) = %d, Stats.SlotsEncoded = %d", got, st.SlotsEncoded)
	}
	if got := total(c.BusExecuted); got != st.MovesExecuted {
		t.Errorf("sum(BusExecuted) = %d, Stats.MovesExecuted = %d", got, st.MovesExecuted)
	}
	// Every executed move writes exactly one destination socket.
	writes, reads := total(c.SocketWrites), total(c.SocketReads)
	if writes != st.MovesExecuted {
		t.Errorf("sum(SocketWrites) = %d, MovesExecuted = %d", writes, st.MovesExecuted)
	}
	if reads > st.MovesExecuted {
		t.Errorf("sum(SocketReads) = %d exceeds MovesExecuted = %d", reads, st.MovesExecuted)
	}
	// Triggers are executed writes to trigger sockets: a subset.
	if trig := total(c.UnitTriggers); trig == 0 || trig > st.MovesExecuted {
		t.Errorf("sum(UnitTriggers) = %d, want in (0, %d]", trig, st.MovesExecuted)
	}
	// Per-bus occupancy averages to the aggregate bus utilization.
	var occ float64
	for b := 0; b < tr.Machine.Buses(); b++ {
		occ += c.BusOccupancy(b)
	}
	occ /= float64(tr.Machine.Buses())
	if util := st.BusUtilization(); !closeTo(occ, util, 1e-12) {
		t.Errorf("mean BusOccupancy = %g, BusUtilization = %g", occ, util)
	}
	for u := range c.UnitTriggers {
		if util := c.UnitUtilization(u); util < 0 || util > 1 {
			t.Errorf("unit %d utilization %g out of [0,1]", u, util)
		}
	}
}

func closeTo(a, b, eps float64) bool {
	d := a - b
	return d < eps && d > -eps
}

// TestCountersResetWithMachine checks machine Reset clears the count and
// that an identical second batch reproduces identical counters — the
// count never perturbs or accumulates across batches.
func TestCountersResetWithMachine(t *testing.T) {
	tr, pkts := goldenRouter(t)
	runRouter(t, tr, pkts)
	first := tr.Machine.Counters()

	tr.Reset()
	if c := tr.Machine.Counters(); c.Cycles != 0 || total(c.BusEncoded) != 0 || total(c.UnitTriggers) != 0 {
		t.Fatalf("Reset left counters: cycles=%d encoded=%v triggers=%v",
			c.Cycles, c.BusEncoded, c.UnitTriggers)
	}
	runRouter(t, tr, pkts)
	c := tr.Machine.Counters()
	if c.Cycles != first.Cycles {
		t.Errorf("second batch ran %d cycles, first %d", c.Cycles, first.Cycles)
	}
	for u, v := range c.UnitTriggers {
		if v != first.UnitTriggers[u] {
			t.Errorf("unit %d triggers differ across identical batches: %d vs %d", u, first.UnitTriggers[u], v)
		}
	}
}

// chromeTrace mirrors the trace-event JSON document shape.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestTraceExportValidChromeJSON runs a traced golden run — the
// recorder read between the cycles of a stepped run — on both step
// paths and checks the exported file is valid Chrome trace-event JSON
// with monotonically non-decreasing timestamps and named tracks, one
// bus slice per encoded move and one unit slice per trigger, and the
// same bytes whichever path stepped.
func TestTraceExportValidChromeJSON(t *testing.T) {
	interp := exportTrace(t, false)
	if compiled := exportTrace(t, true); !bytes.Equal(interp, compiled) {
		t.Error("the compiled path exports a different trace than the interpreter")
	}
}

func exportTrace(t *testing.T, compiled bool) []byte {
	tr, pkts := goldenRouter(t)
	tr.ArmRecorder(0)
	if compiled {
		if err := tr.UseCompiled(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	export := tr.Machine.TraceHook(tw)
	runRouterStepped(t, tr, pkts, func(_ int64, _ int, events []obs.RecEvent) bool {
		export(events)
		return true
	})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	if doc.TraceEvents[len(doc.TraceEvents)-1].Ph != "X" {
		t.Error("expected slice events after metadata")
	}
	var slices, meta int
	var busSlices, unitSlices int64
	lastTS := int64(-1)
	threadNames := map[[2]int]string{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Name == "thread_name" {
				threadNames[[2]int{e.PID, e.TID}] = e.Args["name"].(string)
			}
		case "X":
			slices++
			if e.PID == 1 {
				busSlices++
			} else {
				unitSlices++
			}
			if e.TS < lastTS {
				t.Fatalf("timestamps regressed: %d after %d", e.TS, lastTS)
			}
			lastTS = e.TS
			if e.Dur < 1 {
				t.Fatalf("slice %q has dur %d", e.Name, e.Dur)
			}
			if _, ok := threadNames[[2]int{e.PID, e.TID}]; !ok {
				t.Fatalf("slice %q on unnamed track pid=%d tid=%d", e.Name, e.PID, e.TID)
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if slices == 0 || meta == 0 {
		t.Fatalf("trace has %d slices and %d metadata events", slices, meta)
	}
	// One track per bus and one per functional unit were declared.
	wantTracks := tr.Machine.Buses() + tr.Machine.UnitCount()
	if len(threadNames) != wantTracks {
		t.Errorf("%d named tracks, want %d (buses + units)", len(threadNames), wantTracks)
	}
	c := tr.Machine.Counters()
	if encoded, triggers := total(c.BusEncoded), total(c.UnitTriggers); busSlices != encoded || unitSlices != triggers {
		t.Errorf("%d bus and %d unit slices for %d encoded moves and %d triggers",
			busSlices, unitSlices, encoded, triggers)
	}
	return buf.Bytes()
}

// TestTraceWriterError surfaces downstream write failures through Close
// instead of silently truncating the file.
func TestTraceWriterError(t *testing.T) {
	tw := obs.NewTraceWriter(failWriter{})
	tw.ProcessName(1, "x")
	for i := 0; i < 10_000; i++ { // overflow the bufio buffer
		tw.Complete(1, 0, "e", int64(i), 1, nil)
	}
	if err := tw.Close(); err == nil {
		t.Fatal("Close succeeded over a failing writer")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, errWrite
}

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer
// by the harness. Name is "layer.call"; Parent is the span that caused
// it (-1 for a root); the spans of one op share Inst.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Inst     string `json:"inst,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Count is the work done inside the span in the unit its name
	// implies (simulated cycles for tta.run.*, packets for
	// linecard.deliver, routes for builds, calls for lookup batches),
	// taken at the same boundary as the times.
	Count int64 `json:"count,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// layer is the part of the name before the first dot: the package the
// call lands in. The harness's own glue is layer "bench".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer records spans in memory on one goroutine; nesting follows the
// call stack. Nothing is written until the run ends.
type tracer struct {
	t0       time.Time
	workload string
	inst     string
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Workload: t.workload, Inst: t.inst})
	t.stack = append(t.stack, id)
	t.spans[id].StartNS = time.Since(t.t0).Nanoseconds()
	return id
}

// end closes span id with the work count done inside it.
func (t *tracer) end(id int, count int64) {
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
	t.spans[id].Count = count
	t.stack = t.stack[:len(t.stack)-1]
}

// do records fn as a leaf-or-parent span named name.
func (t *tracer) do(name string, fn func() int64) {
	id := t.begin(name)
	t.end(id, fn())
}

// total sums duration and count over the spans called name.
func (t *tracer) total(name string) (ns, count int64, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.dur()
			count += s.Count
			n++
		}
	}
	return ns, count, n
}

// per returns total duration over total count for spans called name, in
// nanoseconds; 0 when nothing was counted.
func (t *tracer) per(name string) float64 {
	ns, count, _ := t.total(name)
	if count == 0 {
		return 0
	}
	return float64(ns) / float64(count)
}

// meanUS returns the mean duration of the spans called name, in µs.
func (t *tracer) meanUS(name string) float64 {
	ns, _, n := t.total(name)
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// selfMeanUS returns the mean self time of the spans called name, in µs.
func (t *tracer) selfMeanUS(name string) float64 {
	self := selfTimes(t.spans)
	var ns int64
	n := 0
	for i, s := range t.spans {
		if s.Name == name {
			ns += self[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover. Overlapping children are counted
// once, and a child is clipped to its parent, so the self times of a
// tree always sum to the root's duration.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].StartNS < cs[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, c := range cs {
			lo, hi := c.StartNS, c.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// checkNesting reports the first span that ends before it starts or
// reaches outside its parent.
func checkNesting(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %s names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d %s [%d,%d] exceeds its parent %d %s [%d,%d]",
				s.ID, s.Name, s.StartNS, s.EndNS, p.ID, p.Name, p.StartNS, p.EndNS)
		}
	}
	return nil
}

// layerShares attributes the wall time under the spans called root to
// layers by self time. The map sums to 1; "bench" is harness glue.
func layerShares(spans []span, root string) map[string]float64 {
	inTree := make(map[int]bool)
	var wall int64
	for _, s := range spans { // parents precede children
		if s.Name == root && s.Parent < 0 {
			inTree[s.ID] = true
			wall += s.dur()
		} else if inTree[s.Parent] {
			inTree[s.ID] = true
		}
	}
	shares := map[string]float64{}
	if wall == 0 {
		return shares
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if inTree[s.ID] {
			shares[s.layer()] += float64(self[i]) / float64(wall)
		}
	}
	return shares
}

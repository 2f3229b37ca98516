package core

import (
	"sync"

	"taco/internal/router"
	"taco/internal/rtable"
)

// SweepCache shares, between the evaluations of one sweep, every input
// that is a pure function of its key: an instance's simulation inputs
// (routes, arrivals, the golden reference's outcomes and watchdog
// budget, one set per (constraints, options) pair — all nine Table 1
// cells draw the same one, so the golden side is paid once), and for
// scaled evaluations the large route set — one array per size, sorted
// in place into the address order the tables are built from, with an
// int32 index the churn stream and destination sample read it through
// in draw order — that stream and sample, the cycle-accurate anchors,
// and what each built table measured.
// A table is built once per (route set, churn stream, sample, built
// kind), and every kind that prices that structure reads its row from
// the one build (rtable.Kind.BuiltAs: the compressed rows from the
// multibit trie). The cache keeps the probe average, the live count
// and each such kind's MemDims, never the table, so no built table
// outlives the instance that built it.
// Each key is computed once — a goroutine asking for a key still being
// computed waits for it — and nothing is evicted: the owner drops the
// cache with the sweep. Cached slices are read-only: no rtable backend
// writes to the routes it is handed (the balanced tree keeps the sorted
// set but clones it before its first point update), and a line card
// copies a datagram's bytes into the machine rather than rewriting
// them. The zero value is ready to use.
//
// Which job computes a key, and when (the dse pool computes each route
// set as a job of its own, ahead of the instances), cannot change a
// result: every value is a pure function of its key.
type SweepCache struct {
	mu sync.Mutex
	m  map[any]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	v    any
}

// cached returns the value for key, computing it on first request.
func cached[V any](c *SweepCache, key any, compute func() V) V {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[any]*cacheEntry)
	}
	e := c.m[key]
	if e == nil {
		e = new(cacheEntry)
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v.(V)
}

// inputsKey keys an instance's simulation inputs on everything
// simInputs may read.
type inputsKey struct {
	cons Constraints
	sim  SimOptions
}

// simSet is one simInputs result, or why it failed.
type simSet struct {
	routes   []rtable.Route
	arrivals []router.Arrival
	want     router.Outcomes
	budget   int64
	err      error
}

func (c *SweepCache) inputs(cons Constraints, sim SimOptions) simSet {
	return cached(c, inputsKey{cons, sim}, func() simSet { return simInputs(cons, sim) })
}

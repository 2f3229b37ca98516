package ripng

import (
	"fmt"
	"sync"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/rtable"
)

// Timer defaults (RFC 2080 §2.3). Statistics in the paper note that
// once the topology stabilises, updates arrive on the order of minutes —
// these timers are why.
const (
	DefaultUpdateSeconds  = 30
	DefaultTimeoutSeconds = 180
	DefaultGCSeconds      = 120
)

// Clock is engine time in seconds since an arbitrary epoch; the caller
// advances it (no wall-clock dependence).
type Clock int64

// Iface describes one router interface for RIPng purposes.
type Iface struct {
	// LinkLocal is the interface's link-local address, used as the
	// source of updates and as the next hop learned by neighbours.
	LinkLocal ipv6.Addr
	// Cost is added to metrics learned through this interface (≥1).
	Cost int
}

// AllIfaces is the Iface of a packet queued on every interface: an
// update.
const AllIfaces = -1

// OutPacket is a RIPng packet queued for transmission on one interface
// or, for an update, on all of them. A response is exported once, with
// each route's own metric; split horizon with poisoned reverse is
// applied per interface on the way out (DeriveUDP).
type OutPacket struct {
	Iface int // the interface it goes out on, or AllIfaces
	Dst   ipv6.Addr
	Pkt   Packet
	// PoisonOn[i] is the interface on which Pkt.RTEs[i] goes out at
	// metric Infinity — the one its route was learned on — or -1. It is
	// nil for a packet sent as it is.
	PoisonOn []int32
}

// SentOn reports whether op goes out on iface.
func (op OutPacket) SentOn(iface int) bool {
	return op.Iface == iface || op.Iface == AllIfaces
}

type ripRoute struct {
	prefix  bits.Prefix
	nextHop ipv6.Addr
	iface   int
	metric  int
	tag     uint16
	direct  bool // connected network: never expires
	expires Clock
	gcAt    Clock
	changed bool
}

// Engine is one router's RIPng process. It maintains the router's
// forwarding table (an rtable.Table of any implementation) from received
// responses, answers requests, and emits periodic, triggered and
// garbage-collection updates.
type Engine struct {
	table  rtable.Table
	ifaces []Iface
	// order is the route store: every RIPng route, kept sorted by
	// (address, length) on insert. It is searched by bisection and walked
	// as-is to advertise, so responses list routes in this order.
	order []*ripRoute
	// hint is the slot after the last search hit, tried first: a
	// neighbour's response lists its routes in this same order.
	hint int
	// changed counts the routes flagged for the next triggered update.
	changed int

	now        Clock
	nextUpdate Clock
	update     Clock
	timeout    Clock
	gc         Clock

	// out and chunks are the packets queued for the next Collect and
	// their RTEs; lent and lentChunks are the batch the last one returned.
	out, lent          []OutPacket
	chunks, lentChunks []*rteChunk
}

// NewEngine returns an engine over the given forwarding table and
// interfaces, using default timers. The engine schedules its first
// periodic update one interval after start.
func NewEngine(table rtable.Table, ifaces []Iface, start Clock) *Engine {
	e := &Engine{
		table:   table,
		ifaces:  append([]Iface(nil), ifaces...),
		now:     start,
		update:  DefaultUpdateSeconds,
		timeout: DefaultTimeoutSeconds,
		gc:      DefaultGCSeconds,
	}
	e.nextUpdate = start + e.update
	return e
}

// Start queues the RFC 2080 §2.5.1 startup behaviour: a whole-table
// request multicast on every interface, so neighbours answer with their
// tables immediately instead of waiting for their periodic updates.
func (e *Engine) Start() {
	if len(e.ifaces) > 0 {
		e.out = append(e.out, OutPacket{Iface: AllIfaces, Dst: ipv6.AllRIPRouters, Pkt: WholeTableRequest()})
	}
}

// SetTimers overrides the protocol timers (tests and examples).
func (e *Engine) SetTimers(update, timeout, gc Clock) {
	e.update, e.timeout, e.gc = update, timeout, gc
	e.nextUpdate = e.now + update
}

// Table returns the forwarding table the engine maintains.
func (e *Engine) Table() rtable.Table { return e.table }

// AddDirect installs a connected network on iface: metric 1, never aged.
func (e *Engine) AddDirect(prefix bits.Prefix, iface int) error {
	if iface < 0 || iface >= len(e.ifaces) {
		return fmt.Errorf("ripng: interface %d out of range", iface)
	}
	r := &ripRoute{prefix: prefix, iface: iface, metric: 1, direct: true}
	if i, ok := e.find(prefix); !ok {
		e.insert(i, r)
	} else {
		if e.order[i].changed {
			e.changed--
		}
		e.order[i] = r
	}
	return e.install(r)
}

// find returns prefix's slot in order and whether it is there; when it
// is not, the slot is where it would be inserted.
func (e *Engine) find(prefix bits.Prefix) (int, bool) {
	if h := e.hint; h < len(e.order) && e.order[h].prefix == prefix {
		e.hint = h + 1
		return h, true
	}
	lo, hi := 0, len(e.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		q := e.order[mid].prefix
		c := q.Addr.Cmp(prefix.Addr)
		if c < 0 || c == 0 && q.Len < prefix.Len {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	found := lo < len(e.order) && e.order[lo].prefix == prefix
	e.hint = lo
	if found {
		e.hint++
	}
	return lo, found
}

// insert places r at slot i, the position find reported for its prefix.
func (e *Engine) insert(i int, r *ripRoute) {
	e.order = append(e.order, nil)
	copy(e.order[i+1:], e.order[i:])
	e.order[i] = r
	e.hint = i + 1
}

// mark flags r for the next triggered update.
func (e *Engine) mark(r *ripRoute) {
	if !r.changed {
		r.changed = true
		e.changed++
	}
}

func (e *Engine) install(r *ripRoute) error {
	if r.metric >= Infinity {
		e.table.Delete(r.prefix)
		return nil
	}
	return e.table.Insert(rtable.Route{
		Prefix:  r.prefix,
		NextHop: r.nextHop,
		Iface:   r.iface,
		Metric:  r.metric,
		Tag:     r.tag,
	})
}

// Receive processes a RIPng packet arriving on iface from src (the
// neighbour's link-local address). Outgoing packets it provokes are
// queued for Collect.
func (e *Engine) Receive(iface int, src ipv6.Addr, p Packet) error {
	if iface < 0 || iface >= len(e.ifaces) {
		return fmt.Errorf("ripng: interface %d out of range", iface)
	}
	switch p.Command {
	case CommandRequest:
		return e.handleRequest(iface, src, p)
	case CommandResponse:
		return e.handleResponse(iface, src, p)
	}
	return fmt.Errorf("ripng: command %d", p.Command)
}

func (e *Engine) handleRequest(iface int, src ipv6.Addr, p Packet) error {
	if IsWholeTableRequest(p) {
		e.queueResponses(iface, src, false)
		return nil
	}
	if len(p.RTEs) == 0 {
		return nil // RFC 2080 §2.4.1: "If there are no entries, no response is given."
	}
	// Specific-prefix request: answer with our metric for each entry
	// (Infinity when unknown), no split horizon (RFC 2080 §2.4.1).
	resp := Packet{Command: CommandResponse, RTEs: make([]RTE, 0, len(p.RTEs))}
	for _, q := range p.RTEs {
		m := uint8(Infinity)
		var tag uint16
		if i, ok := e.find(q.Prefix); ok {
			m = uint8(e.order[i].metric)
			tag = e.order[i].tag
		}
		resp.RTEs = append(resp.RTEs, RTE{Prefix: q.Prefix, Metric: m, Tag: tag})
	}
	e.out = append(e.out, OutPacket{Iface: iface, Dst: src, Pkt: resp})
	return nil
}

func (e *Engine) handleResponse(iface int, src ipv6.Addr, p Packet) error {
	// RFC 2080 §2.4.2: responses must come from a link-local address.
	if !ipv6.IsLinkLocal(src) {
		return fmt.Errorf("ripng: response from non-link-local source %s", ipv6.FormatAddr(src))
	}
	cost := e.ifaces[iface].Cost
	if cost < 1 {
		cost = 1
	}
	for _, rte := range p.RTEs {
		if rte.Metric == NextHopMetric {
			continue // next-hop RTEs only redirect; our topology model doesn't need them
		}
		// RFC 2080 §2.4.2: validate each RTE and ignore invalid ones
		// without discarding the rest of the response. Parse enforces the
		// same bounds on the wire, but packets can also be injected
		// in-memory (tests, fault campaigns), so the engine revalidates.
		if rte.Prefix.Len > 128 || rte.Metric < 1 || rte.Metric > Infinity {
			continue
		}
		if ipv6.IsMulticast(rte.Prefix.Addr) || ipv6.IsLinkLocal(rte.Prefix.Addr) {
			continue // never route to multicast or link-local prefixes
		}
		metric := int(rte.Metric) + cost
		if metric > Infinity {
			metric = Infinity
		}
		e.updateRoute(rte.Prefix, src, iface, metric, rte.Tag)
	}
	return nil
}

// updateRoute applies the RFC 2080 §2.4.2 distance-vector rules.
func (e *Engine) updateRoute(prefix bits.Prefix, nextHop ipv6.Addr, iface, metric int, tag uint16) {
	i, exists := e.find(prefix)
	if !exists {
		if metric >= Infinity {
			return // don't add unreachable routes
		}
		r := &ripRoute{prefix: prefix, nextHop: nextHop, iface: iface,
			metric: metric, tag: tag, expires: e.now + e.timeout}
		e.insert(i, r)
		e.mark(r)
		_ = e.install(r)
		return
	}
	r := e.order[i]
	switch {
	case r.direct:
		return // connected routes never learned over
	case r.nextHop == nextHop && r.iface == iface:
		// Same gateway: always believe it. The timeout restarts only
		// while the route stays reachable (RFC 2080 §2.4.2): a metric-16
		// update from the gateway poisons the route and must start GC
		// aging instead of keeping the route alive.
		if metric < Infinity {
			r.expires = e.now + e.timeout
		}
		if metric != r.metric {
			e.setMetric(r, metric, tag)
		}
	case metric < r.metric:
		// Strictly better route through a different gateway.
		r.nextHop, r.iface = nextHop, iface
		r.expires = e.now + e.timeout
		e.setMetric(r, metric, tag)
	}
}

func (e *Engine) setMetric(r *ripRoute, metric int, tag uint16) {
	r.metric, r.tag = metric, tag
	e.mark(r)
	if metric >= Infinity {
		r.gcAt = e.now + e.gc
	} else {
		r.gcAt = 0
	}
	_ = e.install(r)
}

// Tick advances engine time, firing timeouts, garbage collection,
// triggered updates and the periodic update.
func (e *Engine) Tick(now Clock) {
	if now < e.now {
		return
	}
	e.now = now
	// One pass in route order. A route's fate here depends on that route
	// alone — results were identical under a randomised map order — so
	// any fixed order is equivalent.
	kept := e.order[:0]
	for _, r := range e.order {
		switch {
		case !r.direct && r.metric < Infinity && r.expires != 0 && now >= r.expires:
			e.setMetric(r, Infinity, r.tag) // route timed out: poison it
		case r.metric >= Infinity && r.gcAt != 0 && now >= r.gcAt && !r.changed:
			// A poisoned route may only be garbage-collected after its
			// metric-16 advertisement has gone out (r.changed cleared by
			// the next update); deleting it first would silently withdraw
			// the route and leave neighbors counting on a dead path. This
			// pins the expiry -> poison advertisement -> deletion ordering
			// even when the GC interval is zero.
			e.table.Delete(r.prefix)
			continue
		}
		kept = append(kept, r)
	}
	for i := len(kept); i < len(e.order); i++ {
		e.order[i] = nil // drop the collected routes' last references
	}
	e.order = kept
	if now >= e.nextUpdate {
		e.emit(false)
		e.nextUpdate = now + e.update
	} else if e.changed > 0 {
		e.emit(true)
	}
}

// emit queues one update for every interface — the whole table
// (periodic) or only the flagged routes (triggered) — and clears the
// flags.
func (e *Engine) emit(changedOnly bool) {
	if len(e.ifaces) > 0 {
		e.queueResponses(AllIfaces, ipv6.AllRIPRouters, changedOnly)
	}
	for _, r := range e.order {
		r.changed = false
	}
	e.changed = 0
}

// rteChunk holds one response packet's RTEs and, per RTE, the
// interface split horizon poisons it on.
type rteChunk struct {
	rtes     [MaxRTEsPerPacket]RTE
	poisonOn [MaxRTEsPerPacket]int32
}

// chunkPool is shared by every engine, so the chunks in use stay near
// one round of updates instead of each engine keeping its own peak.
var chunkPool = sync.Pool{New: func() any { return new(rteChunk) }}

// queueResponses queues the routes — only the flagged ones when
// changedOnly — for iface (or AllIfaces), each MTU-sized packet exported
// once, straight into a pooled chunk: every route at its own metric,
// poisoned on the interface it was learned on unless it is direct. A
// packet's slices are capped at its length, so an append cannot reach
// another packet's entries; queued packets are read-only from here on.
func (e *Engine) queueResponses(iface int, dst ipv6.Addr, changedOnly bool) {
	var c *rteChunk
	n := 0
	for _, r := range e.order {
		if changedOnly && !r.changed {
			continue
		}
		if n == 0 {
			c = chunkPool.Get().(*rteChunk)
			e.chunks = append(e.chunks, c)
			e.out = append(e.out, OutPacket{Iface: iface, Dst: dst, Pkt: Packet{Command: CommandResponse}})
		}
		c.rtes[n] = RTE{Prefix: r.prefix, Metric: uint8(r.metric), Tag: r.tag}
		c.poisonOn[n] = -1
		if !r.direct {
			c.poisonOn[n] = int32(r.iface)
		}
		n++
		if n == MaxRTEsPerPacket {
			e.seal(c, n)
			n = 0
		}
	}
	if n > 0 {
		e.seal(c, n)
	}
}

// seal hands the last queued packet the first n entries of its chunk.
func (e *Engine) seal(c *rteChunk, n int) {
	op := &e.out[len(e.out)-1]
	op.Pkt.RTEs, op.PoisonOn = c.rtes[:n:n], c.poisonOn[:n:n]
}

// Collect returns the packets queued since the last Collect. The batch —
// the slice and every packet's RTEs and PoisonOn — stays valid until the engine's next
// Collect, which recycles its storage; a caller that keeps packets longer
// copies them.
func (e *Engine) Collect() []OutPacket {
	for _, c := range e.lentChunks {
		chunkPool.Put(c)
	}
	clear(e.lentChunks)
	clear(e.lent)
	batch := e.out
	e.out, e.lent = e.lent[:0], batch
	e.chunks, e.lentChunks = e.lentChunks[:0], e.chunks
	return batch
}

// RouteCount returns the number of RIPng routes (including poisoned ones
// awaiting garbage collection).
func (e *Engine) RouteCount() int { return len(e.order) }

// LinkLocal returns iface's link-local address.
func (e *Engine) LinkLocal(iface int) ipv6.Addr { return e.ifaces[iface].LinkLocal }

// Ifaces returns the interface count.
func (e *Engine) Ifaces() int { return len(e.ifaces) }

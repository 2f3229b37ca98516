package net

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"taco/internal/bits"
	"taco/internal/fault"
	"taco/internal/forensics"
	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/ripng"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// maxProbeAgeTicks is the defensive ceiling on a probe's lifetime. The
// hop limit (64) kills looping probes long before this; a probe aging
// out means the mesh itself lost track of it, which is audited as a
// violation rather than silently dropped.
const maxProbeAgeTicks = 96

// nbr is one adjacency from a node's point of view. Its outgoing wire
// (flap schedule, loss, corruption) is owned by the transmitting node,
// so per-tick parallelism never races on the wire's RNG.
type nbr struct {
	node      int // neighbor id
	edge      int // index into topo.Edges
	out       *fault.Link
	peerIface int // arrival interface on the neighbor
}

// ctrlMsg is a control-plane frame sitting in a node's inbox.
type ctrlMsg struct {
	iface int
	data  []byte
}

// CtrlStats is one node's control-plane accounting. Sender-side fields
// count this node's transmissions; receiver-side fields count what its
// inbox drain did. The campaign's control-audit invariant requires the
// mesh-wide sums to match the links' own LinkStats exactly.
type CtrlStats struct {
	LinkDelivered, LostDown, LostRandom int64 // sender side
	InboxDrained, Received, Garbage     int64 // receiver side
	NodeDown                            int64 // frames drained by a crashed node
}

func (c *CtrlStats) add(o CtrlStats) {
	c.LinkDelivered += o.LinkDelivered
	c.LostDown += o.LostDown
	c.LostRandom += o.LostRandom
	c.InboxDrained += o.InboxDrained
	c.Received += o.Received
	c.Garbage += o.Garbage
	c.NodeDown += o.NodeDown
}

// probe is one in-flight datagram traversing the mesh a hop per tick.
type probe struct {
	id        int64
	src       int
	dstPrefix bits.Prefix
	data      []byte
	at        int // current node
	iface     int // arrival interface at the current node
	hops      int
	born      int64
	sweep     bool // verdict sweep: delivery is required
	converged bool // injected while the mesh was converged and fault-free
	corrupted bool // link corruption rewrote the bytes; fate is exempt
}

// ProbeOutcome is one terminated probe's audited fate.
type ProbeOutcome struct {
	ID     int64  `json:"id"`
	Src    int    `json:"src"`
	Dst    string `json:"dst"`
	DiedAt int    `json:"died_at"`
	Tick   int64  `json:"tick"`
	Hops   int    `json:"hops"`
	// Result is "delivered" or the audited death reason: an
	// ipv6.DropReason name, "link-down", "link-loss", "node-crash",
	// "misdelivery" or "aged-out".
	Result string `json:"result"`
	Sweep  bool   `json:"sweep,omitempty"`
}

// Violation is one invariant breach observed by the mesh or campaign.
type Violation struct {
	Tick      int64  `json:"tick"`
	Node      int    `json:"node"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
	Bundle    string `json:"bundle,omitempty"`
}

// nodeOut is a node's per-tick output, merged serially in node order.
type nodeOut struct {
	ctrl       []ctrlDelivery
	moves      []probeMove
	outcomes   []ProbeOutcome
	violations []Violation
}

type ctrlDelivery struct {
	dst, iface int
	data       []byte
}

type probeMove struct {
	dst int
	p   *probe
}

type node struct {
	id          int
	kind        NodeKind
	alive       bool
	quarantined bool

	table rtable.Table
	eng   *ripng.Engine
	taco  *router.TACO

	nbrs   []nbr
	stubs  []bits.Prefix
	ifaces int
	lls    []ipv6.Addr

	inbox  []ctrlMsg
	probes []*probe
	rtes   []ripng.RTE // decoding scratch for inbox frames
	bases  [][]byte    // this tick's base frame per queued packet, pooled

	ctrl CtrlStats

	tacoHops, tacoDivergences, stalls int64

	out nodeOut
}

type meshEvent struct {
	at   int64
	kind string // "crash" | "restart" | "storm"
	node int
}

// Mesh is the multi-router simulation: topology, per-node control and
// data planes, faulty links, in-flight probes, and the seeded
// discrete-event clock driving it all.
type Mesh struct {
	topo     Topology
	diameter int // topo.Diameter(), computed once
	opt      Options
	cfg      fu.Config // every TACO node's architecture instance

	nodes []*node
	// links[2*e] carries Edges[e].A -> B, links[2*e+1] the reverse.
	links []*fault.Link

	now      int64
	probeSeq int64
	probeRNG *workload.RNG

	prefixIdx map[bits.Prefix]int

	outcomes    []ProbeOutcome
	violations  []Violation
	bundlePaths []string

	probeInjected, probeDelivered    int64
	probeHopDelivered, probeLostDown int64
	probeLostRandom                  int64
	probeDeaths                      map[string]int64
	inFlight                         int64
	stormInjected                    int64

	cachedOracle *Oracle
	oracleDirty  bool
	topoTicks    map[int64]bool
	events       []meshEvent

	// convergedWindow marks ticks where the campaign asserts clean,
	// converged forwarding: probe deaths become violations.
	convergedWindow bool

	watch *metricWatch
}

// NewMesh builds every node, engine, link and (for TACO nodes) the
// cycle-accurate processor, and queues the RIPng startup requests.
func NewMesh(topo Topology, opt Options) (*Mesh, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	opt.defaults()
	m := &Mesh{
		topo:        topo,
		diameter:    topo.Diameter(),
		opt:         opt,
		cfg:         fu.Config3Bus1FU(opt.Table),
		probeRNG:    workload.NewRNG(opt.Seed ^ 0xa5b35705b5aa5b35),
		probeDeaths: map[string]int64{},
		prefixIdx:   map[bits.Prefix]int{},
		topoTicks:   map[int64]bool{},
		oracleDirty: true,
	}
	for i, owner := range topo.StubOwners {
		m.prefixIdx[StubPrefix(owner)] = i
	}
	// Directed links, seeded per (edge, direction).
	for ei := range topo.Edges {
		for dir := 0; dir < 2; dir++ {
			seed := opt.Seed ^ (uint64(ei)<<1 | uint64(dir)) ^ 0xd1b54a32d192ed03
			m.links = append(m.links, fault.NewLink(seed))
		}
	}
	// Adjacency, sorted per node by (neighbor, edge) for stable
	// interface numbering.
	adj := make([][]nbr, topo.N)
	for ei, e := range topo.Edges {
		adj[e.A] = append(adj[e.A], nbr{node: e.B, edge: ei, out: m.links[2*ei]})
		adj[e.B] = append(adj[e.B], nbr{node: e.A, edge: ei, out: m.links[2*ei+1]})
	}
	stubOwner := make(map[int]bool, len(topo.StubOwners))
	for _, s := range topo.StubOwners {
		stubOwner[s] = true
	}
	for id := 0; id < topo.N; id++ {
		sort.Slice(adj[id], func(i, j int) bool {
			if adj[id][i].node != adj[id][j].node {
				return adj[id][i].node < adj[id][j].node
			}
			return adj[id][i].edge < adj[id][j].edge
		})
		kind, err := mixKind(opt.Mix, id)
		if err != nil {
			return nil, err
		}
		n := &node{id: id, kind: kind, alive: true, nbrs: adj[id],
			rtes: make([]ripng.RTE, 0, ripng.MaxRTEsPerPacket)}
		if stubOwner[id] {
			n.stubs = append(n.stubs, StubPrefix(id))
		}
		n.ifaces = len(n.nbrs) + len(n.stubs)
		for f := 0; f < n.ifaces; f++ {
			n.lls = append(n.lls, linkLocal(id, f))
		}
		n.table = rtable.New(opt.Table)
		if kind != NodeGolden {
			tr, err := router.NewTACO(m.cfg, n.table, n.ifaces)
			if err != nil {
				return nil, fmt.Errorf("net: node %d: %w", id, err)
			}
			if kind == NodeTACOCompiled {
				if err := tr.UseCompiled(); err != nil {
					return nil, fmt.Errorf("net: node %d: %w", id, err)
				}
			}
			if opt.ForensicsDir != "" {
				tr.ArmRecorder(0)
			}
			n.taco = tr
		}
		m.nodes = append(m.nodes, n)
	}
	// peerIface back-references need every node's sorted nbr list.
	for _, n := range m.nodes {
		for i := range n.nbrs {
			peer := m.nodes[n.nbrs[i].node]
			for pf, pn := range peer.nbrs {
				if pn.edge == n.nbrs[i].edge {
					n.nbrs[i].peerIface = pf
				}
			}
		}
	}
	for _, n := range m.nodes {
		m.startEngine(n)
	}
	if opt.WatchMetrics {
		m.watch = newMetricWatch(topo.N, len(topo.StubOwners))
	}
	return m, nil
}

// linkLocal returns node's deterministic link-local address on iface.
func linkLocal(id, iface int) ipv6.Addr {
	return ipv6.Addr{Hi: 0xfe80 << 48, Lo: uint64(id+1)<<16 | uint64(iface+1)}
}

// startEngine (re)builds a node's RIPng engine over its existing table:
// fresh protocol state, scaled timers, directly connected stubs, and
// the RFC 2080 startup whole-table request.
func (m *Mesh) startEngine(n *node) {
	for _, r := range n.table.Routes() {
		n.table.Delete(r.Prefix)
	}
	ifaces := make([]ripng.Iface, n.ifaces)
	for f := 0; f < n.ifaces; f++ {
		ifaces[f] = ripng.Iface{LinkLocal: n.lls[f], Cost: 1}
	}
	n.eng = ripng.NewEngine(n.table, ifaces, ripng.Clock(m.now))
	n.eng.SetTimers(DefaultUpdateTicks, DefaultTimeoutTicks, DefaultGCTicks)
	for si, p := range n.stubs {
		if err := n.eng.AddDirect(p, len(n.nbrs)+si); err != nil {
			// Interface indices are constructed in range; this cannot
			// fail for a validated topology.
			panic(err)
		}
	}
	n.eng.Start()
}

// Now returns the current tick.
func (m *Mesh) Now() int64 { return m.now }

// Topo returns the mesh's topology.
func (m *Mesh) Topo() Topology { return m.topo }

// Alive reports whether a node is currently running.
func (m *Mesh) Alive(id int) bool { return m.nodes[id].alive }

// Quarantined lists nodes whose TACO data plane was disabled by the
// stall watchdog, ascending.
func (m *Mesh) Quarantined() []int {
	var out []int
	for _, n := range m.nodes {
		if n.quarantined {
			out = append(out, n.id)
		}
	}
	return out
}

// Routes returns a node's current FIB listing (canonical order).
func (m *Mesh) Routes(id int) []rtable.Route { return m.nodes[id].table.Routes() }

// SetConvergedWindow marks (or clears) the clean-forwarding window:
// probes injected inside it must deliver, and any death — including
// hop-limit exhaustion, the forwarding-loop signature — is a violation.
func (m *Mesh) SetConvergedWindow(on bool) { m.convergedWindow = on }

// ScheduleEdge schedules both directions of edge ei up or down at tick
// at (the partition/flap primitive).
func (m *Mesh) ScheduleEdge(ei int, at int64, up bool) {
	m.links[2*ei].Schedule(at, up)
	m.links[2*ei+1].Schedule(at, up)
	m.noteTopoChange(at)
}

// CutBetween severs every edge crossing the node set (inSet true on one
// side) from tick at until heal, and returns the cut edge indices.
func (m *Mesh) CutBetween(inSet func(node int) bool, at, heal int64) []int {
	var cut []int
	for ei, e := range m.topo.Edges {
		if inSet(e.A) != inSet(e.B) {
			m.ScheduleEdge(ei, at, false)
			m.ScheduleEdge(ei, heal, true)
			cut = append(cut, ei)
		}
	}
	return cut
}

// ScheduleCrash takes a node down at tick at and restarts it (fresh
// protocol state over the same hardware) at restart; restart < 0 means
// it stays down.
func (m *Mesh) ScheduleCrash(nodeID int, at, restart int64) {
	m.events = append(m.events, meshEvent{at: at, kind: "crash", node: nodeID})
	if restart >= 0 {
		m.events = append(m.events, meshEvent{at: restart, kind: "restart", node: nodeID})
	}
}

// ScheduleStorm injects a poison storm at tick at: every prefix in the
// node's FIB advertised at metric 16 to all its neighbors, as a dying
// or malicious peer would.
func (m *Mesh) ScheduleStorm(nodeID int, at int64) {
	m.events = append(m.events, meshEvent{at: at, kind: "storm", node: nodeID})
}

// SetLinkFaults sets the per-frame loss and corruption probabilities on
// every directed link (the chaos window's wire quality); zeros restore
// perfect wires for verdict sweeps.
func (m *Mesh) SetLinkFaults(loss, corrupt float64) {
	for _, l := range m.links {
		l.Loss = loss
		l.Corrupt = corrupt
	}
}

func (m *Mesh) noteTopoChange(at int64) {
	m.topoTicks[at] = true
	if at <= m.now {
		m.oracleDirty = true
	}
}

// edgeUp reports whether edge ei passes traffic in both directions now.
func (m *Mesh) edgeUp(ei int) bool {
	return m.links[2*ei].Up(m.now) && m.links[2*ei+1].Up(m.now)
}

// InjectProbe launches one probe from a stub owner toward a stub
// prefix. It returns false when src is down or owns no stub.
func (m *Mesh) InjectProbe(src int, dst bits.Prefix, sweep bool) bool {
	n := m.nodes[src]
	if !n.alive || len(n.stubs) == 0 {
		return false
	}
	m.probeSeq++
	payload := make([]byte, 16)
	for i, id := 0, m.probeSeq; i < 8; i++ {
		payload[i] = byte(id >> (8 * i))
	}
	h := ipv6.Header{
		HopLimit: ipv6.MaxHopLimit,
		Src:      probeSrc(n.stubs[0]),
		Dst:      probeDst(dst),
	}
	const probeProto = 253 // RFC 3692 experimental
	data, err := ipv6.BuildDatagram(h, nil, probeProto, payload)
	if err != nil {
		panic(err) // fixed-shape datagram; cannot fail
	}
	p := &probe{
		id: m.probeSeq, src: src, dstPrefix: dst, data: data,
		at: src, iface: len(n.nbrs), born: m.now, sweep: sweep,
		converged: sweep || m.convergedWindow,
	}
	n.probes = append(n.probes, p)
	m.probeInjected++
	m.inFlight++
	return true
}

// probeDst is the address probes aim at inside a stub prefix.
func probeDst(p bits.Prefix) ipv6.Addr { return ipv6.Addr{Hi: p.Addr.Hi, Lo: p.Addr.Lo | 1} }

// probeSrc is the address probes claim inside their origin stub.
func probeSrc(p bits.Prefix) ipv6.Addr { return ipv6.Addr{Hi: p.Addr.Hi, Lo: p.Addr.Lo | 2} }

// SweepProbes injects up to dests probes from every alive stub owner to
// oracle-reachable foreign stubs (sweep probes: delivery is required).
// It returns how many probes were launched.
func (m *Mesh) SweepProbes(dests int) int {
	o := m.oracle()
	launched := 0
	for _, src := range m.topo.StubOwners {
		if !m.nodes[src].alive {
			continue
		}
		var reachable []int
		for p := range o.prefixes {
			if o.Owner(p) != src && o.Reachable(p, src) {
				reachable = append(reachable, p)
			}
		}
		for d := 0; d < dests && len(reachable) > 0; d++ {
			pick := m.probeRNG.Intn(len(reachable))
			p := reachable[pick]
			reachable = append(reachable[:pick], reachable[pick+1:]...)
			if m.InjectProbe(src, o.prefixes[p], true) {
				launched++
			}
		}
	}
	return launched
}

// Step advances the whole mesh one tick: due events, then every node in
// parallel (control plane, then its resident probes), then a
// deterministic node-ordered merge of cross-node traffic.
func (m *Mesh) Step() {
	now := m.now
	m.applyEvents(now)
	if m.topoTicks[now] {
		m.oracleDirty = true
	}
	workers := m.opt.Workers
	parallelNodes(workers, len(m.nodes), func(i int) {
		m.nodes[i].process(m, now)
	})
	for _, n := range m.nodes {
		m.mergeNode(n)
	}
	if m.watch != nil {
		m.watch.sample(m)
	}
	m.now++
}

// RunUntilConverged steps until every alive FIB matches the oracle,
// giving up after budget ticks. It returns the ticks consumed and
// whether convergence was reached.
func (m *Mesh) RunUntilConverged(budget int64) (int64, bool) {
	start := m.now
	for {
		if m.Converged() {
			return m.now - start, true
		}
		if m.now-start >= budget {
			return m.now - start, false
		}
		m.Step()
	}
}

// RunTicks advances the mesh n ticks.
func (m *Mesh) RunTicks(n int64) {
	for i := int64(0); i < n; i++ {
		m.Step()
	}
}

func (m *Mesh) applyEvents(now int64) {
	for _, ev := range m.events {
		if ev.at != now {
			continue
		}
		n := m.nodes[ev.node]
		switch ev.kind {
		case "crash":
			n.alive = false
			m.oracleDirty = true
		case "restart":
			if !n.alive {
				n.alive = true
				m.startEngine(n)
				m.oracleDirty = true
			}
		case "storm":
			m.injectStorm(n, now)
		}
	}
}

// injectStorm spoofs metric-16 withdrawals of everything in the node's
// FIB toward all its neighbors, bypassing the links (the storm models a
// misbehaving control plane, not a wire fault).
func (m *Mesh) injectStorm(n *node, now int64) {
	if !n.alive {
		return
	}
	routes := n.table.Routes()
	prefixes := make([]bits.Prefix, len(routes))
	for i, r := range routes {
		prefixes[i] = r.Prefix
	}
	pkts := fault.PoisonStorm(prefixes)
	for f, nb := range n.nbrs {
		peer := m.nodes[nb.node]
		if !peer.alive {
			continue
		}
		for _, pkt := range pkts {
			data, err := ripng.WrapUDP(nil, n.lls[f], ipv6.AllRIPRouters, pkt)
			if err != nil {
				panic(err)
			}
			peer.inbox = append(peer.inbox, ctrlMsg{iface: nb.peerIface, data: data})
			m.stormInjected++
		}
	}
}

// process runs one node's tick: drain the control inbox into the RIPng
// engine, advance the engine's timers, transmit its updates over the
// faulty wires, then forward every resident probe one hop.
// It touches only node-owned state and the node's outgoing links.
func (n *node) process(m *Mesh, now int64) {
	n.out.ctrl = n.out.ctrl[:0]
	n.out.moves = n.out.moves[:0]
	n.out.outcomes = n.out.outcomes[:0]
	n.out.violations = n.out.violations[:0]

	// Control plane.
	inbox := n.inbox
	n.inbox = n.inbox[:0]
	n.ctrl.InboxDrained += int64(len(inbox))
	for _, msg := range inbox {
		n.drain(msg)
		putFrame(msg.data)
	}
	if n.alive {
		n.eng.Tick(ripng.Clock(now))
		n.transmitAll(now, n.eng.Collect())
	}

	// Data plane: forward resident probes one hop.
	probes := n.probes
	n.probes = n.probes[:0]
	for _, p := range probes {
		n.stepProbe(m, now, p)
	}
}

// drain accounts one inbox frame: dropped by a crashed node, else
// decoded into the node's scratch and handed to the engine, which copies
// what it keeps.
func (n *node) drain(msg ctrlMsg) {
	if !n.alive {
		n.ctrl.NodeDown++
		return
	}
	src, pkt, err := ripng.UnwrapUDP(n.rtes, msg.data)
	if err == nil {
		err = n.eng.Receive(msg.iface, src, pkt)
	}
	if err != nil {
		n.ctrl.Garbage++
		return
	}
	n.ctrl.Received++
}

// framePool recycles control frames, which live one tick: encoded at t,
// drained and put back at t+1.
var framePool = sync.Pool{New: func() any { return new([ripng.MaxFrameBytes]byte) }}

// putFrame returns a drained buffer to the pool when it can hold any
// frame (cap ≥ MaxFrameBytes) — a storm frame or a corrupted copy whose
// size class rounds up that far included — and leaves a smaller one to
// the collector.
func putFrame(b []byte) {
	if cap(b) >= ripng.MaxFrameBytes {
		framePool.Put((*[ripng.MaxFrameBytes]byte)(b[:ripng.MaxFrameBytes]))
	}
}

// getFrame takes an empty MaxFrameBytes buffer from the pool.
func getFrame() []byte { return framePool.Get().(*[ripng.MaxFrameBytes]byte)[:0] }

// transmitAll sends a Collect batch to the neighbours: interfaces in
// order, each interface's packets in batch order — the order of every
// wire's RNG draws and of every inbox. Each packet a neighbour gets is
// encoded once, on first use, into a pooled base frame, and every
// interface's frame is derived from it; stub interfaces get nothing.
func (n *node) transmitAll(now int64, ops []ripng.OutPacket) {
	n.bases = append(n.bases[:0], make([][]byte, len(ops))...)
	for f, nb := range n.nbrs {
		for i, op := range ops {
			if !op.SentOn(f) {
				continue
			}
			if n.bases[i] == nil {
				base, err := ripng.WrapUDP(getFrame(), n.lls[f], op.Dst, op.Pkt)
				if err != nil {
					panic(err)
				}
				n.bases[i] = base
			}
			n.transmit(now, nb, ripng.DeriveUDP(getFrame(), n.bases[i], n.lls[f], op, f))
		}
	}
	for i, b := range n.bases {
		if b != nil {
			putFrame(b)
			n.bases[i] = nil
		}
	}
}

// transmit sends one frame in a pooled buffer down the wire to
// neighbour nb, accounting its fate. A frame the wire loses, or replaces
// by a corrupted copy, goes straight back.
func (n *node) transmit(now int64, nb nbr, data []byte) {
	sent, ok := nb.out.Transmit(now, data)
	if !ok || &sent[0] != &data[0] {
		putFrame(data)
	}
	if !ok {
		if !nb.out.Up(now) {
			n.ctrl.LostDown++
		} else {
			n.ctrl.LostRandom++
		}
		return
	}
	n.ctrl.LinkDelivered++
	n.out.ctrl = append(n.out.ctrl, ctrlDelivery{dst: nb.node, iface: nb.peerIface, data: sent})
}

// stepProbe decides one probe's fate at this node and either terminates
// it (outcome recorded) or queues its move to the next hop.
func (n *node) stepProbe(m *Mesh, now int64, p *probe) {
	die := func(result string) {
		n.out.outcomes = append(n.out.outcomes, ProbeOutcome{
			ID: p.id, Src: p.src, Dst: p.dstPrefix.String(), DiedAt: n.id,
			Tick: now, Hops: p.hops, Result: result, Sweep: p.sweep,
		})
	}
	if !n.alive {
		die("node-crash")
		return
	}
	if now-p.born > maxProbeAgeTicks {
		die("aged-out")
		n.out.violations = append(n.out.violations, Violation{
			Tick: now, Node: n.id, Invariant: "probe-audit",
			Detail: fmt.Sprintf("probe %d aged out unaccounted at node %d", p.id, n.id),
		})
		return
	}

	want := router.Expect(p.id, router.Classify(n.table, nil, p.data), p.data)
	if n.taco != nil && !n.quarantined {
		n.differentialHop(m, now, p, want)
	}

	switch want.Action {
	case router.Drop:
		reason := want.Reason.String()
		die(reason)
		if p.converged && !p.corrupted {
			inv := "probe-delivery"
			if want.Reason == ipv6.DropHopLimit {
				inv = "forwarding-loop"
			}
			v := Violation{
				Tick: now, Node: n.id, Invariant: inv,
				Detail: fmt.Sprintf("probe %d (%d -> %s) died of %s at node %d after %d hops",
					p.id, p.src, p.dstPrefix, reason, n.id, p.hops),
			}
			n.captureProbeBundle(m, p, want, &v)
			n.out.violations = append(n.out.violations, v)
		}
		return
	case router.Local:
		// Probes are never addressed to routers; a Local fate means the
		// destination address was corrupted into a router/multicast
		// address, or something is deeply wrong.
		die("local")
		if !p.corrupted {
			v := Violation{
				Tick: now, Node: n.id, Invariant: "probe-audit",
				Detail: fmt.Sprintf("probe %d locally delivered at node %d", p.id, n.id),
			}
			n.captureProbeBundle(m, p, want, &v)
			n.out.violations = append(n.out.violations, v)
		}
		return
	}

	// Forward.
	out := want.Data
	if want.Iface >= len(n.nbrs) {
		// Out a stub interface: delivery — to the right stub, or a
		// misdelivery the invariant checker must flag.
		si := want.Iface - len(n.nbrs)
		h, _ := ipv6.ParseHeader(p.data)
		if si < len(n.stubs) && n.stubs[si].Contains(h.Dst) {
			die("delivered")
			return
		}
		die("misdelivery")
		if !p.corrupted {
			v := Violation{
				Tick: now, Node: n.id, Invariant: "misdelivery",
				Detail: fmt.Sprintf("probe %d for %s delivered out stub interface %d of node %d",
					p.id, p.dstPrefix, want.Iface, n.id),
			}
			n.captureProbeBundle(m, p, want, &v)
			n.out.violations = append(n.out.violations, v)
		}
		return
	}
	nb := n.nbrs[want.Iface]
	sent, ok := nb.out.Transmit(now, out)
	if !ok {
		if !nb.out.Up(now) {
			die("link-down")
		} else {
			die("link-loss")
		}
		return
	}
	if !bytes.Equal(sent, out) {
		p.corrupted = true
	}
	p.data = sent
	p.hops++
	p.iface = nb.peerIface
	n.out.moves = append(n.out.moves, probeMove{dst: nb.node, p: p})
}

// differentialHop replays the probe hop on the node's cycle-accurate
// TACO pipeline and checks that the machine did what the golden decision
// requires (want), output bytes included (router.TACO.RunChecked). A
// watchdog stall quarantines the node (the campaign degrades gracefully
// to the golden path) and a divergence is counted; either captures its
// forensic bundle.
func (n *node) differentialHop(m *Mesh, now int64, p *probe, want router.Outcome) {
	n.tacoHops++
	t := n.taco
	t.Reset()
	arrival := []router.Arrival{{Iface: p.iface, Seq: p.id, Data: p.data}}
	run, err := t.RunChecked(arrival, router.Outcomes{Datagrams: []router.Outcome{want}}, n.hopBudget(m), nil)
	v := Violation{Tick: now, Node: n.id}
	switch {
	case err != nil:
		n.quarantined = true
		n.stalls++
		v.Invariant = "stall-quarantine"
		v.Detail = fmt.Sprintf("node %d (%s) stalled on probe %d: %v — quarantined",
			n.id, n.kind, p.id, err)
	case run.Agree():
		return
	default:
		n.tacoDivergences++
		v.Invariant = "differential"
		v.Detail = fmt.Sprintf("node %d (%s): TACO %v diverges from golden %v for probe %d",
			n.id, n.kind, run.Outcomes.Datagrams[0], want, p.id)
	}
	if m.opt.ForensicsDir != "" {
		base := n.newProbeBundle(m, "", p, run.Delivered)
		base.Note = v.Detail
		for _, b := range base.Failures(t, run, err) {
			m.saveBundle(&v, b)
		}
	}
	n.out.violations = append(n.out.violations, v)
}

// newProbeBundle assembles the replay-input half of a forensic bundle
// for one probe hop at this node: its architecture, its exact FIB, and
// the exact datagram bytes as they arrived.
func (n *node) newProbeBundle(m *Mesh, kind string, p *probe, accepted int64) *forensics.Bundle {
	b := forensics.NewRouterBundle(kind,
		fmt.Sprintf("node-%d-probe-%d", n.id, p.id),
		m.cfg, n.ifaces, n.table.Routes(),
		[]forensics.Datagram{{Iface: p.iface, Seq: p.id, Data: p.data}},
		accepted, n.hopBudget(m), n.kind == NodeTACOCompiled)
	b.Seed = m.opt.Seed
	return b
}

// hopBudget is the TACO watchdog budget of one probe hop at this node:
// Options.MaxCyclesPerProbe, or else a generous bound scaled to the
// node's table.
func (n *node) hopBudget(m *Mesh) int64 {
	if m.opt.MaxCyclesPerProbe > 0 {
		return m.opt.MaxCyclesPerProbe
	}
	return router.WatchdogBudget(1, n.table.Len())
}

// saveBundle writes b to the forensics directory and records its path
// in v, or else the failure in v's detail.
func (m *Mesh) saveBundle(v *Violation, b *forensics.Bundle) {
	path, err := b.Save(m.opt.ForensicsDir)
	if err != nil {
		v.Detail += fmt.Sprintf(" (forensics capture failed: %v)", err)
		return
	}
	v.Bundle = path
}

// captureProbeBundle serializes a net-invariant bundle for a
// probe-witnessed violation v: the node's exact forwarding state plus
// the dying datagram, replayable by tacoreplay. It does nothing when
// forensics are disabled.
func (n *node) captureProbeBundle(m *Mesh, p *probe, did router.Outcome, v *Violation) {
	if m.opt.ForensicsDir == "" {
		return
	}
	accepted := int64(1)
	if did.Reason == ipv6.DropOversize || did.Reason == ipv6.DropLengthMismatch {
		accepted = 0 // the line card itself rejects these frames
	}
	b := n.newProbeBundle(m, forensics.KindNetInvariant, p, accepted)
	b.Note = v.Detail
	b.GotFates = forensics.Fates(router.Outcomes{Datagrams: []router.Outcome{did}})
	b.WantFates = []forensics.Fate{m.oracleFate(p)}
	m.saveBundle(v, b)
}

// oracleFate is what the whole-network oracle says the violating node
// should have done with the probe: forward it one hop closer to the
// destination stub (or out the owner's stub interface).
func (m *Mesh) oracleFate(p *probe) forensics.Fate {
	o := m.oracle()
	pi := o.PrefixIndex(p.dstPrefix)
	n := m.nodes[p.at]
	if pi < 0 || !o.Reachable(pi, p.at) {
		return forensics.Fate{Seq: p.id, Action: router.Drop.String(), Iface: -1}
	}
	if o.Owner(pi) == p.at {
		return forensics.Fate{Seq: p.id, Action: router.Forward.String(), Iface: len(n.nbrs)}
	}
	d := o.Dist(pi, p.at)
	for f, nb := range n.nbrs {
		if o.Dist(pi, nb.node) == d-1 {
			return forensics.Fate{Seq: p.id, Action: router.Forward.String(), Iface: f}
		}
	}
	return forensics.Fate{Seq: p.id, Action: router.Drop.String(), Iface: -1}
}

// mergeNode folds one node's tick output into the mesh, in node order.
func (m *Mesh) mergeNode(n *node) {
	for _, d := range n.out.ctrl {
		m.nodes[d.dst].inbox = append(m.nodes[d.dst].inbox, ctrlMsg{iface: d.iface, data: d.data})
	}
	for _, mv := range n.out.moves {
		mv.p.at = mv.dst
		m.nodes[mv.dst].probes = append(m.nodes[mv.dst].probes, mv.p)
		m.probeHopDelivered++
	}
	for _, oc := range n.out.outcomes {
		m.outcomes = append(m.outcomes, oc)
		m.inFlight--
		if oc.Result == "delivered" {
			m.probeDelivered++
		} else {
			m.probeDeaths[oc.Result]++
		}
		switch oc.Result {
		case "link-down":
			m.probeLostDown++
		case "link-loss":
			m.probeLostRandom++
		}
	}
	for _, v := range n.out.violations {
		m.violations = append(m.violations, v)
		if v.Bundle != "" {
			m.bundlePaths = append(m.bundlePaths, v.Bundle)
		}
	}
}

// DrainOutcomes returns and clears the accumulated probe outcomes.
func (m *Mesh) DrainOutcomes() []ProbeOutcome {
	out := m.outcomes
	m.outcomes = nil
	return out
}

// Violations returns every invariant breach observed so far.
func (m *Mesh) Violations() []Violation { return m.violations }

// BundlePaths returns every forensic bundle written so far.
func (m *Mesh) BundlePaths() []string { return m.bundlePaths }

// InFlight returns the number of probes still traversing the mesh.
func (m *Mesh) InFlight() int64 { return m.inFlight }

// CtrlTotals sums every node's control-plane accounting.
func (m *Mesh) CtrlTotals() CtrlStats {
	var total CtrlStats
	for _, n := range m.nodes {
		total.add(n.ctrl)
	}
	return total
}

// TACOTotals sums differential data-plane accounting: probe hops
// executed on TACO pipelines, divergences, and watchdog stalls.
func (m *Mesh) TACOTotals() (hops, divergences, stalls int64) {
	for _, n := range m.nodes {
		hops += n.tacoHops
		divergences += n.tacoDivergences
		stalls += n.stalls
	}
	return
}

// AuditConservation cross-checks the mesh's own accounting against the
// fault layer's LinkStats and the probe ledger. Every returned string
// is an unexplained discrepancy — the drop-audit invariant requires an
// empty result.
func (m *Mesh) AuditConservation() []string {
	var probs []string
	var sent, lostDown, lostRandom int64
	for _, l := range m.links {
		s := l.Stats()
		sent += s.Sent
		lostDown += s.LostDown
		lostRandom += s.LostRandom
	}
	ctrl := m.CtrlTotals()
	if got, want := sent, ctrl.LinkDelivered+m.probeHopDelivered; got != want {
		probs = append(probs, fmt.Sprintf("link sent %d != ctrl %d + probe hops %d",
			got, ctrl.LinkDelivered, m.probeHopDelivered))
	}
	if got, want := lostDown, ctrl.LostDown+m.probeLostDown; got != want {
		probs = append(probs, fmt.Sprintf("link lost-down %d != ctrl %d + probe %d",
			got, ctrl.LostDown, m.probeLostDown))
	}
	if got, want := lostRandom, ctrl.LostRandom+m.probeLostRandom; got != want {
		probs = append(probs, fmt.Sprintf("link lost-random %d != ctrl %d + probe %d",
			got, ctrl.LostRandom, m.probeLostRandom))
	}
	var pending int64
	for _, n := range m.nodes {
		pending += int64(len(n.inbox))
	}
	if got, want := ctrl.InboxDrained+pending, ctrl.LinkDelivered+m.stormInjected; got != want {
		probs = append(probs, fmt.Sprintf("inbox drained %d + pending %d != link delivered %d + storm %d",
			ctrl.InboxDrained, pending, ctrl.LinkDelivered, m.stormInjected))
	}
	if got, want := ctrl.InboxDrained, ctrl.Received+ctrl.Garbage+ctrl.NodeDown; got != want {
		probs = append(probs, fmt.Sprintf("inbox drained %d != received %d + garbage %d + node-down %d",
			got, ctrl.Received, ctrl.Garbage, ctrl.NodeDown))
	}
	var deaths int64
	for _, c := range m.probeDeaths {
		deaths += c
	}
	if got, want := m.probeInjected, m.probeDelivered+deaths+m.inFlight; got != want {
		probs = append(probs, fmt.Sprintf("probes injected %d != delivered %d + deaths %d + in-flight %d",
			got, m.probeDelivered, deaths, m.inFlight))
	}
	return probs
}

// ProbeLedger summarises probe accounting: injected, delivered, and the
// per-reason death counts (sorted by reason for deterministic emission).
func (m *Mesh) ProbeLedger() (injected, delivered int64, deaths []ReasonCount) {
	reasons := make([]string, 0, len(m.probeDeaths))
	for r := range m.probeDeaths {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		deaths = append(deaths, ReasonCount{Reason: r, Count: m.probeDeaths[r]})
	}
	return m.probeInjected, m.probeDelivered, deaths
}

// ReasonCount is one audited death reason and its tally.
type ReasonCount struct {
	Reason string `json:"reason"`
	Count  int64  `json:"count"`
}

// InjectBlackhole deletes the route for a stub prefix from one node's
// FIB — a deliberate invariant violation used to prove the forensic
// pipeline end to end (tacotopo -inject-violation).
func (m *Mesh) InjectBlackhole(nodeID int, dst bits.Prefix) bool {
	return m.nodes[nodeID].table.Delete(dst)
}

// parallelNodes applies fn to every index in [0, n) using up to workers
// goroutines over contiguous chunks. fn must only touch index-owned
// state; results are therefore identical for any worker count.
func parallelNodes(workers, n int, fn func(i int)) {
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// metricWatch samples every node's FIB each tick and counts upward
// metric revisions per (node, prefix) — the count-to-infinity audit.
// Split horizon with poisoned reverse must keep these counts small;
// unbounded counting shows up as revision counts approaching Infinity.
type metricWatch struct {
	prev   [][]int8
	upward [][]int32
	max    int32
}

func newMetricWatch(nodes, prefixes int) *metricWatch {
	w := &metricWatch{}
	w.prev = make([][]int8, nodes)
	w.upward = make([][]int32, nodes)
	for i := range w.prev {
		w.prev[i] = make([]int8, prefixes)
		w.upward[i] = make([]int32, prefixes)
	}
	return w
}

func (w *metricWatch) sample(m *Mesh) {
	cur := make([]int8, len(m.topo.StubOwners))
	for id, n := range m.nodes {
		for i := range cur {
			cur[i] = 0
		}
		if n.alive {
			for _, r := range n.table.Routes() {
				if pi, ok := m.prefixIdx[r.Prefix]; ok {
					cur[pi] = int8(r.Metric)
				}
			}
		}
		for pi, nm := range cur {
			if pm := w.prev[id][pi]; pm > 0 && nm > pm {
				w.upward[id][pi]++
				if w.upward[id][pi] > w.max {
					w.max = w.upward[id][pi]
				}
			}
			w.prev[id][pi] = nm
		}
	}
}

// MaxUpwardRevisions returns the largest per-(node, prefix) count of
// upward metric revisions seen so far (0 when WatchMetrics is off).
func (m *Mesh) MaxUpwardRevisions() int {
	if m.watch == nil {
		return 0
	}
	return int(m.watch.max)
}

package fu

import (
	"fmt"

	"taco/internal/bits"
	"taco/internal/rtable"
	"taco/internal/tta"
)

// NilNode is the sentinel node/entry index meaning "no node".
const NilNode = 0xffffffff

// RTU is a routing-table unit: the machine's unit over one backend's
// table.
type RTU interface {
	tta.Unit
	// Loads counts the table accesses since Reset: entry or node loads,
	// or searches started.
	Loads() int64
	// Bind points the unit at t, which must be of the unit's backend;
	// any other table is rejected and leaves the unit untouched. A unit
	// is built unbound (RTUKinds) and must be bound before it runs.
	Bind(t rtable.Table) error
}

// RTUSeq is the routing-table unit over the sequential organisation: the
// table is an array of entries; triggering an index load latches the
// whole entry — four prefix words, four mask words, prefix length and
// output interface — into separate result sockets so that multi-bus
// configurations can read several fields per cycle. The processor
// program performs the scan itself (the linear search of the paper's
// first case).
//
// Sockets:
//
//	tidx (trigger)  value = entry index; entry registers valid next cycle
//	p0..p3 (result) prefix words, most significant first
//	m0..m3 (result) netmask words
//	ifc (result)    output interface
//	count (result)  number of entries (always current)
//
// Signal: "valid" — the loaded index was in range.
type RTUSeq struct {
	tta.PortTable
	table *rtable.SequentialTable

	tidx  trigger
	p, m  [4]uint32
	ifc   uint32
	lenp1 uint32
	valid bool

	// cache holds the entries pre-lowered to register words, keyed on the
	// table's mutation generation — an entry load is then a flat copy
	// instead of per-load prefix/mask word extraction.
	cache    []seqRec
	cacheGen uint64
	cacheOK  bool

	loads int64
}

// seqRec is one routing entry lowered to the unit's register words.
type seqRec struct {
	p, m  [4]uint32
	ifc   uint32
	lenp1 uint32
}

// NewRTUSeq returns an unbound sequential-backend routing-table unit.
// count is read live from the table, so it has no slot.
func NewRTUSeq(name string) *RTUSeq {
	u := &RTUSeq{}
	u.PortTable = tta.PortTable{Name: name, Sockets: []tta.Port{
		trig("tidx", &u.tidx),
		result("p0", &u.p[0]), result("p1", &u.p[1]), result("p2", &u.p[2]), result("p3", &u.p[3]),
		result("m0", &u.m[0]), result("m1", &u.m[1]), result("m2", &u.m[2]), result("m3", &u.m[3]),
		result("ifc", &u.ifc),
		result("lenp1", &u.lenp1),
		computed("count", func() uint32 { return uint32(u.table.Len()) }),
	}, Lines: []tta.Line{flag("valid", &u.valid)}, Clocking: tta.ClockOnWrite}
	return u
}

func (u *RTUSeq) Clock(int64) error {
	if idx, ok := u.tidx.take(); ok {
		u.loads++
		if !u.cacheOK || u.cacheGen != u.table.Gen() {
			u.rebuildCache()
		}
		if int(idx) < len(u.cache) {
			r := &u.cache[idx]
			u.p, u.m = r.p, r.m
			u.ifc = r.ifc
			u.lenp1 = r.lenp1
			u.valid = true
		} else {
			u.valid = false
		}
	}
	return nil
}

// Bind re-points the unit at t, which must be a sequential table; any
// other table is rejected and leaves the unit untouched. The lowered
// cache is dropped: Gen counts one table's mutations, so two freshly
// built tables usually share a generation and the check in Clock alone
// would keep serving the old table's entries.
func (u *RTUSeq) Bind(t rtable.Table) error {
	st, ok := t.(*rtable.SequentialTable)
	if !ok {
		return fmt.Errorf("fu: %s: a sequential RTU cannot bind %T", u.Name, t)
	}
	u.table, u.cacheOK = st, false
	return nil
}

func (u *RTUSeq) rebuildCache() {
	u.cache = u.cache[:0]
	for i, n := 0, u.table.Len(); i < n; i++ {
		r, _ := u.table.EntryAt(i)
		u.cache = append(u.cache, seqRec{
			p:   r.Prefix.Addr.Words(),
			m:   bits.Mask(r.Prefix.Len).Words(),
			ifc: uint32(r.Iface), lenp1: uint32(r.Prefix.Len) + 1,
		})
	}
	u.cacheGen = u.table.Gen()
	u.cacheOK = true
}
func (u *RTUSeq) Reset() {
	u.tidx.reset()
	u.p, u.m = [4]uint32{}, [4]uint32{}
	u.ifc, u.lenp1, u.valid, u.loads = 0, 0, false, 0
}

// Loads reports the number of entry loads performed.
func (u *RTUSeq) Loads() int64 { return u.loads }

// RTUTree is the routing-table unit over the balanced range tree: the
// table is an array of nodes, each holding a disjoint address range, the
// owning route's interface, and child indices. Triggering a node load
// latches the node record; the processor program performs the
// root-to-leaf walk (the logarithmic search of the paper's second case).
//
// Sockets:
//
//	tnode (trigger)  value = node index (NilNode for none)
//	f0..f3 (result)  range first-address words
//	l0..l3 (result)  range last-address words
//	left, right (result)  child node indices (NilNode when absent)
//	ifc (result)     output interface of the owning route
//	root (result)    current root node index (always current)
//
// Signal: "valid" — the loaded index referenced a real node.
type RTUTree struct {
	tta.PortTable
	table *rtable.BalancedTreeTable

	tnode       trigger
	f, l        [4]uint32
	left, right uint32
	ifc         uint32
	valid       bool

	// cache holds the nodes pre-lowered to register words, keyed on the
	// table's rebuild generation (see RTUSeq.cache).
	cache    []treeRec
	cacheGen uint64
	cacheOK  bool

	loads int64
}

// treeRec is one tree node lowered to the unit's register words.
type treeRec struct {
	f, l             [4]uint32
	left, right, ifc uint32
}

// NewRTUTree returns an unbound balanced-tree-backend routing-table
// unit. root is read live from the table, so it has no slot.
func NewRTUTree(name string) *RTUTree {
	u := &RTUTree{}
	u.PortTable = tta.PortTable{Name: name, Sockets: []tta.Port{
		trig("tnode", &u.tnode),
		result("f0", &u.f[0]), result("f1", &u.f[1]), result("f2", &u.f[2]), result("f3", &u.f[3]),
		result("l0", &u.l[0]), result("l1", &u.l[1]), result("l2", &u.l[2]), result("l3", &u.l[3]),
		result("left", &u.left), result("right", &u.right),
		result("ifc", &u.ifc),
		computed("root", func() uint32 { return childIndex(u.table.Root()) }),
	}, Lines: []tta.Line{flag("valid", &u.valid)}, Clocking: tta.ClockOnWrite}
	return u
}

func (u *RTUTree) Clock(int64) error {
	if idx, ok := u.tnode.take(); ok {
		u.loads++
		if idx == NilNode {
			u.valid = false
			return nil
		}
		if !u.cacheOK || u.cacheGen != u.table.Gen() {
			u.rebuildCache()
		}
		if int(idx) < len(u.cache) {
			n := &u.cache[idx]
			u.f, u.l = n.f, n.l
			u.left, u.right = n.left, n.right
			u.ifc = n.ifc
			u.valid = true
		} else {
			u.valid = false
		}
	}
	return nil
}

// Bind re-points the unit at t, which must be a balanced-tree table, and
// drops the lowered cache (see RTUSeq.Bind).
func (u *RTUTree) Bind(t rtable.Table) error {
	bt, ok := t.(*rtable.BalancedTreeTable)
	if !ok {
		return fmt.Errorf("fu: %s: a balanced-tree RTU cannot bind %T", u.Name, t)
	}
	u.table, u.cacheOK = bt, false
	return nil
}

func (u *RTUTree) rebuildCache() {
	u.cache = u.cache[:0]
	nodes, _ := u.table.Nodes()
	for i := range nodes {
		n := &nodes[i]
		u.cache = append(u.cache, treeRec{
			f: n.First.Words(), l: n.Last.Words(),
			left: childIndex(n.Left), right: childIndex(n.Right),
			ifc: uint32(u.table.RouteAt(n.Owner).Iface),
		})
	}
	u.cacheGen = u.table.Gen()
	u.cacheOK = true
}

func childIndex(i int) uint32 {
	if i < 0 {
		return NilNode
	}
	return uint32(i)
}

func (u *RTUTree) Reset() {
	u.tnode.reset()
	u.f, u.l = [4]uint32{}, [4]uint32{}
	u.left, u.right, u.ifc = 0, 0, 0
	u.valid, u.loads = false, 0
}

// Loads reports the number of node loads performed.
func (u *RTUTree) Loads() int64 { return u.loads }

// RTUCAM is the routing-table unit over the CAM+SRAM solution: the
// processor hands the unit a destination address and receives, after a
// fixed search latency, the output interface — the single-probe lookup
// of the paper's third case, which turns the TACO processor into a
// system-on-chip with industrial IP blocks.
//
// Sockets:
//
//	a0, a1, a2 (operand)  high address words
//	tlook (trigger)       value = lowest address word; starts the search
//	ifc (result)          output interface of the matched route
//	hit (result)          1 when a route matched
//
// Signals: "ready" (no search in flight), "hit" (last search matched).
type RTUCAM struct {
	tta.PortTable
	table *rtable.CAMTable
	wait  int

	a     [3]latch
	tlook trigger

	busy     int // cycles remaining in the current search
	pendAddr bits.Word128
	ifc      uint32
	hit      bool
	ready    bool

	searches int64
}

// NewRTUCAM returns an unbound CAM-backend routing-table unit with the
// given search latency in cycles (Config.Validate holds it ≥ 1). The hit
// result is the hit flag read as a word, on demand.
func NewRTUCAM(name string, waitCycles int) *RTUCAM {
	u := &RTUCAM{wait: waitCycles, ready: true}
	u.PortTable = tta.PortTable{Name: name, Sockets: []tta.Port{
		operand("a0", &u.a[0]), operand("a1", &u.a[1]), operand("a2", &u.a[2]),
		trig("tlook", &u.tlook),
		result("ifc", &u.ifc),
		computed("hit", func() uint32 { return boolWord(u.hit) }),
	}, Lines: []tta.Line{flag("ready", &u.ready), flag("hit", &u.hit)},
		// The busy countdown advances every cycle of a search in flight.
		Clocking: tta.ClockSettled, Settled: func() bool { return u.busy == 0 },
	}
	return u
}

func (u *RTUCAM) Clock(int64) error {
	for i := range u.a {
		u.a[i].clock()
	}
	if a3, ok := u.tlook.take(); ok {
		if u.busy > 0 {
			return fmt.Errorf("fu: rtu-cam retriggered during a search")
		}
		u.pendAddr = bits.FromWords(u.a[0].cur, u.a[1].cur, u.a[2].cur, a3)
		u.busy = u.wait
		u.ready = false
		u.searches++
	}
	if u.busy > 0 {
		u.busy--
		if u.busy == 0 {
			r, ok := u.table.Lookup(u.pendAddr)
			u.hit = ok
			if ok {
				u.ifc = uint32(r.Iface)
			}
			u.ready = true
		}
	}
	return nil
}

// Bind re-points the unit at t, which must be a CAM table; the CAM keeps
// no lowered copy, so searches read t from the next Clock on.
func (u *RTUCAM) Bind(t rtable.Table) error {
	ct, ok := t.(*rtable.CAMTable)
	if !ok {
		return fmt.Errorf("fu: %s: a CAM RTU cannot bind %T", u.Name, t)
	}
	u.table = ct
	return nil
}

func (u *RTUCAM) Reset() {
	for i := range u.a {
		u.a[i].reset()
	}
	u.tlook.reset()
	u.busy, u.ifc, u.hit, u.ready = 0, 0, false, true
	u.searches = 0
}

// Searches reports the number of CAM searches started.
func (u *RTUCAM) Searches() int64 { return u.searches }

// Loads is Searches: a CAM search is the unit's one table access.
func (u *RTUCAM) Loads() int64 { return u.searches }

// WaitCycles returns the configured search latency.
func (u *RTUCAM) WaitCycles() int { return u.wait }

package fu

import (
	"fmt"

	"taco/internal/bits"
	"taco/internal/linecard"
	"taco/internal/tta"
)

// LIU is the local info unit of Figure 2: it knows the router's own
// unicast addresses and joined multicast groups (e.g. the RIPng group
// ff02::9), so the forwarding program can decide in one operation
// whether a datagram is addressed to the router itself.
//
// Sockets: a0, a1, a2 (operands), tchk (trigger; value = lowest address
// word), mine (result: 1/0), nifc (result: interface count).
// Signal: "mine".
type LIU struct {
	tta.PortTable
	local []bits.Word128
	nifc  uint32

	a    [3]latch
	tchk trigger
	mine bool
}

// NewLIU returns an empty local-info unit; configure it with SetLocal
// and SetIfaceCount. The mine result is the mine flag read as a word, on
// demand.
func NewLIU(name string) *LIU {
	u := &LIU{}
	u.PortTable = tta.PortTable{Name: name, Sockets: []tta.Port{
		operand("a0", &u.a[0]), operand("a1", &u.a[1]), operand("a2", &u.a[2]),
		trig("tchk", &u.tchk),
		computed("mine", func() uint32 { return boolWord(u.mine) }),
		result("nifc", &u.nifc),
	}, Lines: []tta.Line{flag("mine", &u.mine)}, Clocking: tta.ClockOnWrite}
	return u
}

// SetLocal installs the addresses considered "local" (unicast addresses
// and joined multicast groups).
func (u *LIU) SetLocal(addrs []bits.Word128) {
	u.local = append([]bits.Word128(nil), addrs...)
}

// SetIfaceCount installs the router's interface count.
func (u *LIU) SetIfaceCount(n int) { u.nifc = uint32(n) }

func (u *LIU) Clock(int64) error {
	for i := range u.a {
		u.a[i].clock()
	}
	if a3, ok := u.tchk.take(); ok {
		addr := bits.FromWords(u.a[0].cur, u.a[1].cur, u.a[2].cur, a3)
		u.mine = false
		for _, l := range u.local {
			if l == addr {
				u.mine = true
				break
			}
		}
	}
	return nil
}

func (u *LIU) Reset() {
	for i := range u.a {
		u.a[i].reset()
	}
	u.tchk.reset()
	u.mine = false
}

// ippuEntry is one queued datagram descriptor: where the preprocessing
// unit stored it, which interface it arrived on, and its byte length.
type ippuEntry struct {
	ptr   uint32 // word address in data memory
	iface uint32
	bytes uint32
	words uint32
	seq   int64
}

// IPPU is the preprocessing unit (paper §3): it autonomously scans the
// line cards' input buffers for pending datagrams, DMAs each one into
// the processor's data memory, and queues a (pointer, interface) record.
// A 1-bit signal wired straight to the network controller announces
// pending entries, so guarded moves can branch on it without polling
// card registers.
//
// The DMA itself runs in the background (one datagram per cycle when
// space permits) and does not occupy interconnection-network bus slots —
// header processing, not payload movement, is the forwarding critical
// path being measured.
//
// Sockets: tpop (trigger: pop the head entry), ptr/ifc/len (results for
// the popped entry). Signal: "pending".
type IPPU struct {
	tta.PortTable
	bank *linecard.Bank
	mmu  *MMU

	base  int // first word of the datagram region
	alloc int // next allocation word

	// queue[qhead:] holds the pending descriptors; the consumed prefix is
	// reclaimed (and its capacity reused) once the queue drains, so the
	// steady-state DMA loop does not grow the backing array.
	queue []ippuEntry
	qhead int
	// inProcess is the most recently popped entry (valid when
	// inProcessOK); its memory stays protected from DMA reuse until the
	// next pop. Held by value so popping never allocates.
	inProcess   ippuEntry
	inProcessOK bool

	tpop            trigger
	rptr, rifc, rln uint32

	popped int64
	seqs   map[uint32]int64

	// storedAt records the machine cycle in which a datagram finished its
	// input DMA, for latency measurement.
	storedAt map[uint32]int64
}

// DatagramBase is the first data-memory word used for datagram storage;
// the words below it are scratch space for the forwarding program.
const DatagramBase = 256

// NewIPPU returns a preprocessing unit DMAing from bank into mmu. The
// pending signal is the queue depth tested on demand, so it has no slot.
func NewIPPU(name string, bank *linecard.Bank, mmu *MMU) *IPPU {
	u := &IPPU{
		bank: bank, mmu: mmu,
		base: DatagramBase, alloc: DatagramBase,
		seqs:     make(map[uint32]int64),
		storedAt: make(map[uint32]int64),
	}
	u.PortTable = tta.PortTable{
		Name: name,
		Sockets: []tta.Port{
			trig("tpop", &u.tpop),
			result("ptr", &u.rptr), result("ifc", &u.rifc), result("len", &u.rln),
		},
		Lines: []tta.Line{computedFlag("pending", func() bool { return u.QueueLen() > 0 })},
		// Idle when no pop is pending and DMA has nothing to do: the
		// descriptor queue is full (it reopens only on a pop, a socket
		// write) or no card has input waiting (a line card delivery
		// between runs unsettles it).
		Clocking: tta.ClockSettled, Settled: func() bool {
			return !u.tpop.fired && (u.QueueLen() >= maxInflight || u.bank.AnyPending() < 0)
		},
		// A data-memory client behind the MMU's back.
		Hazard: "dmem",
	}
	return u
}

// MaxInflight bounds the descriptor queue so DMA cannot indefinitely
// outrun the forwarding program. Exported so the router's stall
// classifier can recognize a full queue as backpressure.
const MaxInflight = 64

// maxInflight is the internal alias used by the queue logic.
const maxInflight = MaxInflight

func (u *IPPU) Clock(now int64) error {
	// Service a pop first so the freed region is available to DMA.
	if _, ok := u.tpop.take(); ok {
		if u.QueueLen() == 0 {
			return fmt.Errorf("fu: ippu popped with empty queue")
		}
		e := u.queue[u.qhead]
		u.qhead++
		if u.qhead == len(u.queue) {
			u.queue, u.qhead = u.queue[:0], 0
		}
		u.inProcess, u.inProcessOK = e, true
		u.rptr, u.rifc, u.rln = e.ptr, e.iface, e.bytes
		u.popped++
	}

	// Background DMA: move one pending datagram into memory per cycle.
	if u.QueueLen() < maxInflight {
		if ci := u.bank.AnyPending(); ci >= 0 {
			card := u.bank.Card(ci)
			if d, ok := peekLen(card); ok {
				words := (d + 3) / 4
				if ptr, ok := u.reserve(words); ok {
					dg, _ := card.ReadInput()
					if len(dg.Data) > maxDatagramBytes {
						// Oversized frames exceed the line card MTU
						// contract; drop rather than overrun the slot.
						return nil
					}
					if _, err := u.mmu.StoreBytes(ptr, dg.Data); err != nil {
						return fmt.Errorf("fu: ippu dma: %w", err)
					}
					e := ippuEntry{
						ptr: uint32(ptr), iface: uint32(ci),
						bytes: uint32(len(dg.Data)), words: uint32(words),
						seq: dg.Seq,
					}
					u.queue = append(u.queue, e)
					u.seqs[e.ptr] = e.seq
					u.storedAt[e.ptr] = now
					u.alloc = ptr + words
				}
			}
		}
	}
	return nil
}

// peekLen returns the byte length of the card's head datagram without
// consuming it.
func peekLen(c *linecard.Card) (int, bool) {
	if !c.InputPending() {
		return 0, false
	}
	// The card model exposes only FIFO reads; reserve conservatively for
	// the maximum datagram size instead of peeking.
	return maxDatagramBytes, true
}

// maxDatagramBytes bounds a line-card datagram — the card's own MTU
// contract (linecard.MaxFrameBytes), so the slot sizing here and the
// card's oversize frame check can never disagree.
const maxDatagramBytes = linecard.MaxFrameBytes

// reserve finds words of contiguous free datagram memory, wrapping to
// the region base when the tail is too small, and refusing regions that
// would overwrite a queued or in-process datagram.
func (u *IPPU) reserve(words int) (int, bool) {
	limit := u.mmu.Words()
	try := func(start int) bool {
		if start+words > limit {
			return false
		}
		end := start + words
		overlaps := func(e *ippuEntry) bool {
			a, b := int(e.ptr), int(e.ptr+e.words)
			return start < b && a < end
		}
		for i := u.qhead; i < len(u.queue); i++ {
			if overlaps(&u.queue[i]) {
				return false
			}
		}
		if u.inProcessOK && overlaps(&u.inProcess) {
			return false
		}
		return true
	}
	if try(u.alloc) {
		return u.alloc, true
	}
	if try(u.base) {
		return u.base, true
	}
	return 0, false
}

// Reset returns the unit to its power-on state. Scratch capacity — the
// descriptor queue's backing array and the bookkeeping maps' buckets —
// is retained, so a reset-per-batch simulation loop does not reallocate.
func (u *IPPU) Reset() {
	u.alloc = u.base
	u.queue, u.qhead = u.queue[:0], 0
	u.inProcess, u.inProcessOK = ippuEntry{}, false
	u.tpop.reset()
	u.rptr, u.rifc, u.rln = 0, 0, 0
	u.popped = 0
	clear(u.seqs)
	clear(u.storedAt)
}

// SeqAt returns the workload sequence number of the datagram stored at
// ptr (harness correlation aid).
func (u *IPPU) SeqAt(ptr uint32) (int64, bool) {
	s, ok := u.seqs[ptr]
	return s, ok
}

// StoredCycleAt returns the machine cycle at which the datagram at ptr
// finished its input DMA.
func (u *IPPU) StoredCycleAt(ptr uint32) (int64, bool) {
	c, ok := u.storedAt[ptr]
	return c, ok
}

// Popped reports how many descriptors the program consumed.
func (u *IPPU) Popped() int64 { return u.popped }

// QueueLen returns the current descriptor-queue depth.
func (u *IPPU) QueueLen() int { return len(u.queue) - u.qhead }

// OPPU is the postprocessing unit (paper §3): it manages the router's
// output traffic. The program hands it a memory pointer, a byte length
// and an output interface; the unit moves the datagram from data memory
// into the corresponding line card's output buffer.
//
// Sockets: ptr (operand), len (operand), tsend (trigger: value = output
// interface). Signal: "err" — the last send failed (bad interface or
// full output buffer).
type OPPU struct {
	tta.PortTable
	bank *linecard.Bank
	mmu  *MMU

	optr, olen latch
	tsend      trigger
	errFlag    bool

	sent      int64
	latencies []int64
	// latIfaces parallels latencies with the output interface of each
	// sent datagram, so per-card latency histograms can be rebuilt.
	latIfaces []int32

	// SeqLookup, when set, recovers the workload sequence number for a
	// sent datagram (wired to IPPU.SeqAt by the machine builder).
	SeqLookup func(ptr uint32) (int64, bool)
	// StoredCycleLookup, when set, recovers the input-DMA completion
	// cycle so the unit can record store-to-transmit latency (wired to
	// IPPU.StoredCycleAt by the machine builder).
	StoredCycleLookup func(ptr uint32) (int64, bool)
}

// NewOPPU returns a postprocessing unit writing from mmu into bank.
func NewOPPU(name string, bank *linecard.Bank, mmu *MMU) *OPPU {
	u := &OPPU{bank: bank, mmu: mmu}
	u.PortTable = tta.PortTable{
		Name:    name,
		Sockets: []tta.Port{operand("ptr", &u.optr), operand("len", &u.olen), trig("tsend", &u.tsend)},
		Lines:   []tta.Line{flag("err", &u.errFlag)},
		// Its only work consumes written operands or its trigger.
		Clocking: tta.ClockOnWrite,
		// Its send trigger stays in program order with MMU writes, so the
		// datagram it copies out reflects the header rewrite.
		Hazard: "dmem",
	}
	return u
}

func (u *OPPU) Clock(now int64) error {
	u.optr.clock()
	u.olen.clock()
	if ifc, ok := u.tsend.take(); ok {
		u.errFlag = false
		if int(ifc) >= u.bank.Len() {
			u.errFlag = true
			return nil
		}
		data, err := u.mmu.LoadBytes(int(u.optr.cur), int(u.olen.cur))
		if err != nil {
			u.errFlag = true
			return nil
		}
		d := linecard.Datagram{Data: data, Seq: -1}
		if u.SeqLookup != nil {
			if s, ok := u.SeqLookup(u.optr.cur); ok {
				d.Seq = s
			}
		}
		if !u.bank.Card(int(ifc)).PushOut(d) {
			// The card counted the overload drop; the error signal lets
			// the program observe it.
			u.errFlag = true
			return nil
		}
		u.sent++
		if u.StoredCycleLookup != nil {
			if at, ok := u.StoredCycleLookup(u.optr.cur); ok {
				u.latencies = append(u.latencies, now-at)
				u.latIfaces = append(u.latIfaces, int32(ifc))
			}
		}
	}
	return nil
}
func (u *OPPU) Reset() {
	u.optr.reset()
	u.olen.reset()
	u.tsend.reset()
	u.errFlag = false
	u.sent = 0
	u.latencies = u.latencies[:0] // keep capacity for the next batch
	u.latIfaces = u.latIfaces[:0]
}

// Sent reports the number of datagrams moved to output buffers.
func (u *OPPU) Sent() int64 { return u.sent }

// Latencies returns the recorded store-to-transmit latencies in machine
// cycles, one per sent datagram, in transmit order.
func (u *OPPU) Latencies() []int64 {
	return append([]int64(nil), u.latencies...)
}

// LatencyRecords calls fn for every recorded latency with its output
// interface, in transmit order, without copying — the feed for
// per-interface latency histograms.
func (u *OPPU) LatencyRecords(fn func(iface int, cycles int64)) {
	for i, l := range u.latencies {
		fn(int(u.latIfaces[i]), l)
	}
}

package fu

import (
	"bytes"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/isa"
	"taco/internal/linecard"
	"taco/internal/rtable"
)

func TestLIUMatchesLocalAddress(t *testing.T) {
	tbl := seqTableWith(t)
	m, units, _ := routerMachine(t, Config3Bus1FU(rtable.Sequential), tbl)
	ripng := bits.FromWords(0xff020000, 0, 0, 9) // ff02::9
	units.LIU.SetLocal([]bits.Word128{ripng})
	units.LIU.SetIfaceCount(4)

	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvI(m, 0xff020000, "liu.a0"), mvI(m, 0, "liu.a1"), mvI(m, 0, "liu.a2")),
		ins(mvI(m, 9, "liu.tchk")),
		ins(mvS(m, "liu.mine", "gpr.r0"), mvS(m, "liu.nifc", "gpr.r1")),
		ins(mvI(m, 8, "liu.tchk")), // different last word: not local
		ins(mvS(m, "liu.mine", "gpr.r2")),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "gpr.r0", 1)
	expect(t, m, "gpr.r1", 4)
	expect(t, m, "gpr.r2", 0)
}

func TestIPPUDMAAndPop(t *testing.T) {
	tbl := seqTableWith(t)
	m, units, bank := routerMachine(t, Config3Bus1FU(rtable.Sequential), tbl)
	payload := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	bank.Card(2).Deliver(linecard.Datagram{Data: payload, Seq: 77})

	pending := isa.Guard{Terms: []isa.GuardTerm{{Signal: m.MustSignal("ippu.pending")}}}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		// Wait for the DMA to queue the descriptor.
		ins(isa.Move{Guard: pending, Src: isa.ImmSrc(2), Dst: m.MustSocket("nc.jmp")}),
		ins(mvI(m, 0, "nc.jmp")),
		ins(mvI(m, 0, "ippu.tpop")),
		ins(mvS(m, "ippu.ptr", "gpr.r0"), mvS(m, "ippu.ifc", "gpr.r1"), mvS(m, "ippu.len", "gpr.r2")),
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	ptr, _ := m.ReadSocket("gpr.r0")
	expect(t, m, "gpr.r1", 2)
	expect(t, m, "gpr.r2", uint32(len(payload)))
	if ptr < DatagramBase {
		t.Fatalf("ptr %d below datagram region", ptr)
	}
	got, err := units.MMU.LoadBytes(int(ptr), len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("stored bytes %x, want %x", got, payload)
	}
	if s, ok := units.IPPU.SeqAt(ptr); !ok || s != 77 {
		t.Errorf("SeqAt = %d, %v", s, ok)
	}
	if units.IPPU.Popped() != 1 {
		t.Errorf("popped = %d", units.IPPU.Popped())
	}
}

func TestIPPUPopEmptyFaults(t *testing.T) {
	tbl := seqTableWith(t)
	m, _, _ := routerMachine(t, Config1Bus1FU(rtable.Sequential), tbl)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{ins(mvI(m, 0, "ippu.tpop"))}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err == nil {
		t.Error("pop of empty queue accepted")
	}
}

func TestIPPUServesLowestCardFirst(t *testing.T) {
	tbl := seqTableWith(t)
	m, units, bank := routerMachine(t, Config1Bus1FU(rtable.Sequential), tbl)
	bank.Card(3).Deliver(linecard.Datagram{Data: []byte{3}, Seq: 3})
	bank.Card(1).Deliver(linecard.Datagram{Data: []byte{1}, Seq: 1})
	// Idle the machine a few cycles so DMA runs.
	p := isa.NewProgram()
	p.Ins = make([]isa.Instruction, 6)
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	if units.IPPU.QueueLen() != 2 {
		t.Fatalf("queue len = %d", units.IPPU.QueueLen())
	}
}

func TestOPPUSend(t *testing.T) {
	tbl := seqTableWith(t)
	m, units, bank := routerMachine(t, Config3Bus1FU(rtable.Sequential), tbl)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := units.MMU.StoreBytes(500, payload); err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvI(m, 500, "oppu.ptr"), mvI(m, 8, "oppu.len")),
		ins(mvI(m, 3, "oppu.tsend")),
		{},
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	out := bank.Card(3).DrainOutput()
	if len(out) != 1 || !bytes.Equal(out[0].Data, payload) {
		t.Fatalf("output = %+v", out)
	}
	if units.OPPU.Sent() != 1 {
		t.Errorf("sent = %d", units.OPPU.Sent())
	}
	if v, _ := m.SignalValue("oppu.err"); v {
		t.Error("err signal high after good send")
	}
}

func TestOPPUBadInterfaceSignalsErr(t *testing.T) {
	tbl := seqTableWith(t)
	m, _, _ := routerMachine(t, Config1Bus1FU(rtable.Sequential), tbl)
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(mvI(m, 9, "oppu.tsend")), // only 4 cards
		{},
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.SignalValue("oppu.err"); !v {
		t.Error("err signal low after bad interface")
	}
}

func TestIPPUEndToEndThroughOPPU(t *testing.T) {
	// Datagram in on card 0, program forwards it out on card 1 using the
	// popped pointer/length — the minimal Figure 1 data path.
	tbl := seqTableWith(t)
	m, units, bank := routerMachine(t, Config3Bus1FU(rtable.Sequential), tbl)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	bank.Card(0).Deliver(linecard.Datagram{Data: payload, Seq: 5})

	pending := isa.Guard{Terms: []isa.GuardTerm{{Signal: m.MustSignal("ippu.pending")}}}
	p := isa.NewProgram()
	p.Ins = []isa.Instruction{
		ins(isa.Move{Guard: pending, Src: isa.ImmSrc(2), Dst: m.MustSocket("nc.jmp")}),
		ins(mvI(m, 0, "nc.jmp")),
		ins(mvI(m, 0, "ippu.tpop")),
		ins(mvS(m, "ippu.ptr", "oppu.ptr"), mvS(m, "ippu.len", "oppu.len")),
		ins(mvI(m, 1, "oppu.tsend")),
		{},
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	out := bank.Card(1).DrainOutput()
	if len(out) != 1 || !bytes.Equal(out[0].Data, payload) {
		t.Fatalf("forwarded datagram wrong: %d datagrams", len(out))
	}
	if out[0].Seq != 5 {
		t.Errorf("seq = %d, want 5", out[0].Seq)
	}
	_ = units
}

func TestOversizedFramesDropAtTheCard(t *testing.T) {
	tbl := seqTableWith(t)
	m, units, bank := routerMachine(t, Config1Bus1FU(rtable.Sequential), tbl)
	// Beyond the MTU contract: the card's frame check rejects it at
	// delivery, so the IPPU's defensive oversize path never fires.
	if bank.Card(0).Deliver(linecard.Datagram{Data: make([]byte, 4096), Seq: 1}) {
		t.Fatal("card accepted a frame beyond MaxFrameBytes")
	}
	if got := bank.Card(0).Stats().Drops[ipv6.DropOversize]; got != 1 {
		t.Errorf("oversize drops = %d, want 1", got)
	}
	bank.Card(0).Deliver(linecard.Datagram{Data: []byte{1, 2, 3, 4}, Seq: 2})
	p := isa.NewProgram()
	p.Ins = make([]isa.Instruction, 8) // idle cycles for the DMA
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(-1); err != nil {
		t.Fatal(err)
	}
	if units.IPPU.QueueLen() != 1 {
		t.Errorf("QueueLen = %d (the valid frame must still arrive)", units.IPPU.QueueLen())
	}
}

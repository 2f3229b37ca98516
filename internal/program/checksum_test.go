package program

import (
	"testing"

	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/isa"
	"taco/internal/ripng"
	"taco/internal/tta"
	"taco/internal/workload"
)

// checksumMachine builds a compute machine with the two counters the
// verifier needs.
func checksumMachine(t *testing.T) (*tta.Machine, *fu.MMU) {
	t.Helper()
	cfg := fu.Config3Bus1FU(0)
	cfg.Counters = 2
	return computeMachine2(t, cfg)
}

func computeMachine2(t *testing.T, cfg fu.Config) (*tta.Machine, *fu.MMU) {
	t.Helper()
	m, err := fu.NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mmu *fu.MMU
	for _, u := range m.Units() {
		if mm, ok := u.(*fu.MMU); ok {
			mmu = mm
		}
	}
	return m, mmu
}

// verify runs the checksum program over datagram bytes stored at word
// 100 and returns the hardware verdict.
func verify(t *testing.T, m *tta.Machine, mmu *fu.MMU, prog *isa.Program, datagram []byte) bool {
	t.Helper()
	m.Reset()
	const base = 100
	if _, err := mmu.StoreBytes(base, datagram); err != nil {
		t.Fatal(err)
	}
	h, err := ipv6.ParseHeader(datagram)
	if err != nil {
		t.Fatal(err)
	}
	// Preload the argument registers, then run from "cksum".
	pre := isa.NewProgram()
	pre.Ins = []isa.Instruction{
		{Moves: []isa.Move{
			{Src: isa.ImmSrc(base), Dst: m.MustSocket("gpr.r0")},
			{Src: isa.ImmSrc(uint32(h.PayloadLen)), Dst: m.MustSocket("gpr.r1")},
		}},
	}
	if err := m.Load(pre); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	m.SetPC(prog.Labels["cksum"])
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadSocket("gpr.r15")
	if err != nil {
		t.Fatal(err)
	}
	return v == 1
}

// TestChecksumVerifyMatchesSoftware cross-checks the hardware UDP
// checksum verifier against the ipv6 package on valid and corrupted
// RIPng datagrams.
func TestChecksumVerifyMatchesSoftware(t *testing.T) {
	m, mmu := checksumMachine(t)
	prog, res, err := ChecksumVerify(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovesOut > res.MovesIn {
		t.Error("optimizer grew the checksum program")
	}
	rng := workload.NewRNG(8)
	for trial := 0; trial < 25; trial++ {
		// A RIPng response of random size wrapped in UDP/IPv6.
		n := 1 + rng.Intn(20)
		pkt := ripng.Packet{Command: ripng.CommandResponse}
		for i := 0; i < n; i++ {
			pkt.RTEs = append(pkt.RTEs, ripng.RTE{
				Prefix: workload.GenerateRoutes(workload.TableSpec{Entries: 1, Seed: uint64(trial*100 + i)})[0].Prefix,
				Metric: 1 + uint8(rng.Intn(15)),
			})
		}
		src := ipv6.MustParseAddr("fe80::7")
		d, err := ripng.WrapUDP(nil, src, ipv6.AllRIPRouters, pkt)
		if err != nil {
			t.Fatal(err)
		}
		if !verify(t, m, mmu, prog, d) {
			t.Fatalf("trial %d: hardware rejected a valid checksum", trial)
		}
		// Corrupt one payload byte: both sides must reject.
		bad := append([]byte(nil), d...)
		idx := ipv6.HeaderBytes + rng.Intn(len(bad)-ipv6.HeaderBytes)
		bad[idx] ^= 0x40
		if verify(t, m, mmu, prog, bad) {
			t.Fatalf("trial %d: hardware accepted a corrupted datagram (byte %d)", trial, idx)
		}
		if _, _, err := ripng.UnwrapUDP(nil, bad); err == nil {
			t.Fatalf("trial %d: software accepted the same corruption", trial)
		}
	}
}

// TestChecksumVerifyNeedsTwoCounters: the generator reports a clean
// error on configurations without cnt1.
func TestChecksumVerifyNeedsTwoCounters(t *testing.T) {
	m, _ := computeMachine2(t, fu.Config1Bus1FU(0))
	if _, _, err := ChecksumVerify(m); err == nil {
		t.Error("generated a two-counter program on a one-counter machine")
	}
}

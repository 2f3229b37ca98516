package ripng

import "slices"

// On returns the packet op sends on iface: Pkt with the RTEs poisoned
// on iface at metric Infinity, in a fresh RTE slice when there are any.
// It is the reference DeriveUDP's frames are checked against.
func (op OutPacket) On(iface int) Packet {
	p, shared := op.Pkt, true
	for i, f := range op.PoisonOn {
		if int(f) != iface {
			continue
		}
		if shared {
			p.RTEs, shared = slices.Clone(p.RTEs), false
		}
		p.RTEs[i].Metric = Infinity
	}
	return p
}

// Expand returns batch as one packet per interface of the ifaces: each
// interface in turn, its packets in batch order (the order a wire sees
// them), each as On that interface. Tests in this package and in
// ripng_test read batches through it.
func Expand(batch []OutPacket, ifaces int) []OutPacket {
	var out []OutPacket
	for f := 0; f < ifaces; f++ {
		for _, op := range batch {
			if op.SentOn(f) {
				out = append(out, OutPacket{Iface: f, Dst: op.Dst, Pkt: op.On(f)})
			}
		}
	}
	return out
}

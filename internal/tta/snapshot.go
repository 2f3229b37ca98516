package tta

// SocketSnapshot is one socket's visible value at a point in time —
// the raw material of a stall dump.
type SocketSnapshot struct {
	Name  string
	Kind  SocketKind
	Value uint32
}

// SnapshotSockets reads every readable socket (Result and Register
// kinds) and returns name/kind/value triples in socket-ID order. The
// write-only kinds — Operand and Trigger — are skipped: their latched
// values are not architecturally visible.
//
// Reads observe the state latched at the end of the previous cycle,
// exactly what a move sourcing the socket would see, so a snapshot
// taken between Step calls never perturbs the machine.
func (m *Machine) SnapshotSockets() []SocketSnapshot {
	var out []SocketSnapshot
	for i := range m.sockets {
		ref := &m.sockets[i]
		if ref.unit < 0 || (ref.kind != Result && ref.kind != Register) {
			continue
		}
		out = append(out, SocketSnapshot{Name: ref.name, Kind: ref.kind, Value: ref.read()})
	}
	return out
}

package router

import (
	"fmt"

	"taco/internal/ipv6"
	"taco/internal/linecard"
	"taco/internal/ripng"
)

// Host bridges the TACO router's local-delivery queue to the control
// plane: RIPng datagrams that the forwarding program classified as
// local (the ff02::9 group or the router's own addresses) are unwrapped
// and fed to the RIPng engine, and the engine's outgoing updates are
// wrapped in UDP/IPv6 and placed on the line cards' output queues.
//
// The engine maintains the very rtable.Table the processor's
// routing-table unit reads, so accepted updates change forwarding
// behaviour immediately — the "build and maintain its routing table"
// half of the paper's router (§3).
type Host struct {
	Router *TACO
	Engine *ripng.Engine

	// NeighborIface maps a neighbour's link-local address to the
	// interface it is attached to. The data path does not carry arrival
	// metadata to the host queue, so the control plane recovers the
	// interface from the source address (as a real RIPng process keys
	// its neighbours).
	NeighborIface map[ipv6.Addr]int

	// Dropped counts local datagrams the control plane had no handler
	// for.
	Dropped int64
}

// NewHost attaches a RIPng engine to a TACO router.
func NewHost(r *TACO, e *ripng.Engine) *Host {
	return &Host{Router: r, Engine: e, NeighborIface: make(map[ipv6.Addr]int)}
}

// PumpLocal drains the router's local queue into the control plane:
// RIPng datagrams go to the engine, anything else is dropped.
func (h *Host) PumpLocal() error {
	for _, d := range h.Router.LocalQueue() {
		if src, pkt, err := ripng.UnwrapUDP(nil, d.Data); err == nil {
			iface, ok := h.NeighborIface[src]
			if !ok {
				h.Dropped++
				continue
			}
			if err := h.Engine.Receive(iface, src, pkt); err != nil {
				return fmt.Errorf("router: ripng receive: %w", err)
			}
			continue
		}
		h.Dropped++
	}
	return nil
}

// FlushUpdates moves the engine's queued packets onto the line cards'
// output queues (the host's transmissions do not pass through the
// forwarding fast path). Each packet is encoded once and every
// interface's frame derived from it, as the mesh does.
func (h *Host) FlushUpdates() error {
	for _, op := range h.Engine.Collect() {
		var base []byte
		for f := 0; f < h.Engine.Ifaces(); f++ {
			if !op.SentOn(f) {
				continue
			}
			if f >= h.Router.Ifaces() {
				return fmt.Errorf("router: update for bad interface %d", f)
			}
			if base == nil {
				var err error
				if base, err = ripng.WrapUDP(nil, h.Engine.LinkLocal(f), op.Dst, op.Pkt); err != nil {
					return err
				}
			}
			// Overload drops the update rather than failing the flush — a
			// congested card loses control traffic like any other traffic,
			// and the card's DroppedOut counter records it.
			d := ripng.DeriveUDP(nil, base, h.Engine.LinkLocal(f), op, f)
			h.Router.Bank.Card(f).PushOut(linecard.Datagram{Data: d, Seq: -1})
		}
	}
	return nil
}

// Tick advances the engine's clock and flushes anything it emitted.
func (h *Host) Tick(now ripng.Clock) error {
	h.Engine.Tick(now)
	return h.FlushUpdates()
}

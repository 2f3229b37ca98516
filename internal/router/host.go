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

	// RespondICMP enables the control plane's ICMPv6 echo responder:
	// echo requests addressed to one of OwnAddrs are answered with echo
	// replies routed by the shared forwarding table.
	RespondICMP bool
	// OwnAddrs are the router's unicast addresses for the responder.
	OwnAddrs []ipv6.Addr

	// Dropped counts local datagrams the control plane had no handler
	// for; EchoReplies counts answered pings.
	Dropped     int64
	EchoReplies int64
}

// NewHost attaches a RIPng engine to a TACO router.
func NewHost(r *TACO, e *ripng.Engine) *Host {
	return &Host{Router: r, Engine: e, NeighborIface: make(map[ipv6.Addr]int)}
}

// PumpLocal drains the router's local queue into the control plane:
// RIPng datagrams go to the engine; with RespondICMP set, echo requests
// for the router's own addresses are answered.
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
		if h.RespondICMP && h.tryEchoReply(d.Data) {
			continue
		}
		h.Dropped++
	}
	return nil
}

// tryEchoReply answers an ICMPv6 echo request addressed to the router,
// routing the reply by the shared forwarding table (as a real host
// stack would). It reports whether the datagram was handled.
func (h *Host) tryEchoReply(datagram []byte) bool {
	hdr, err := ipv6.ParseHeader(datagram)
	if err != nil {
		return false
	}
	mine := false
	for _, a := range h.OwnAddrs {
		if hdr.Dst == a {
			mine = true
			break
		}
	}
	if !mine {
		return false
	}
	proto, off, err := ipv6.UpperLayer(datagram)
	if err != nil || proto != ipv6.ProtoICMPv6 {
		return false
	}
	msg, err := ipv6.ParseICMP(hdr.Src, hdr.Dst, datagram[off:])
	if err != nil || msg.Type != ipv6.ICMPEchoRequest {
		return false
	}
	// Route the reply toward the original source.
	route, ok := h.Engine.Table().Lookup(hdr.Src)
	if !ok || route.Iface >= h.Router.Ifaces() {
		return false
	}
	reply := ipv6.MarshalICMP(hdr.Dst, hdr.Src, ipv6.ICMPMessage{
		Type: ipv6.ICMPEchoReply, Body: msg.Body,
	})
	out, err := ipv6.BuildDatagram(ipv6.Header{
		HopLimit: ipv6.MaxHopLimit, Src: hdr.Dst, Dst: hdr.Src,
	}, nil, ipv6.ProtoICMPv6, reply)
	if err != nil {
		return false
	}
	if !h.Router.Bank.Card(route.Iface).PushOut(linecard.Datagram{Data: out, Seq: -1}) {
		return false
	}
	h.EchoReplies++
	return true
}

// FlushUpdates moves the engine's queued packets onto the line cards'
// output queues (the host's transmissions do not pass through the
// forwarding fast path).
func (h *Host) FlushUpdates() error {
	for _, op := range h.Engine.Collect() {
		if op.Iface < 0 || op.Iface >= h.Router.Ifaces() {
			return fmt.Errorf("router: update for bad interface %d", op.Iface)
		}
		d, err := ripng.WrapUDP(nil, h.Engine.LinkLocal(op.Iface), op.Dst, op.Pkt)
		if err != nil {
			return err
		}
		// Overload drops the update rather than failing the flush — a
		// congested card loses control traffic like any other traffic,
		// and the card's DroppedOut counter records it.
		h.Router.Bank.Card(op.Iface).PushOut(linecard.Datagram{Data: d, Seq: -1})
	}
	return nil
}

// Tick advances the engine's clock and flushes anything it emitted.
func (h *Host) Tick(now ripng.Clock) error {
	h.Engine.Tick(now)
	return h.FlushUpdates()
}

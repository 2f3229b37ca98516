package router

import "taco/internal/ipv6"

// EnableDropAudit makes the router account for machine-level drops by
// reason. While enabled, every datagram accepted into an input queue is
// recorded; FinalizeDropAudit later establishes the drop *fact* from
// machine behaviour (the datagram surfaced in no output queue) and uses
// the shared classifier only to *name* the reason, charging it to the
// arrival card's Stats.Drops. Classifier/machine disagreements are
// counted as unexplained instead of being papered over, which is what
// keeps the golden-vs-TACO drop comparison falsifiable.
//
// The audit requires workload traffic delivered in increasing,
// non-negative Seq order; datagrams with negative Seq (control-plane
// traffic) are not audited. Disabled (the default) the audit costs one nil check per
// Deliver, like the obs counters.
func (t *TACO) EnableDropAudit() {
	if t.audit == nil {
		t.audit = &dropAudit{}
	}
}

// dropAudit holds the datagrams accepted into an input queue since the
// last finalization (the machine copies each frame into its data
// memory, so the recorded bytes are never rewritten).
type dropAudit struct {
	arrivals    []Arrival
	unexplained int64
}

// FinalizeDropAudit classifies every audited datagram that the machine
// neither forwarded nor delivered locally, attributing the drop reason
// to its arrival card. It must run after Run and before the output
// queues are drained (Outputs/LocalQueue), because the evidence of
// non-drop lives in those queues.
func (t *TACO) FinalizeDropAudit() {
	if t.audit == nil {
		return
	}
	for i, o := range t.match(t.audit.arrivals).Datagrams {
		if o.Action != Drop {
			continue
		}
		a := t.audit.arrivals[i]
		if dec := Classify(t.tbl, t.isLocal, a.Data); dec.Action == Drop {
			t.Bank.Card(a.Iface).CountDrop(dec.Reason)
		} else {
			// The machine dropped something the classifier says it should
			// have forwarded or delivered — a real divergence, surfaced
			// rather than silently classified.
			t.audit.unexplained++
		}
	}
	t.audit.arrivals = t.audit.arrivals[:0]
}

// UnexplainedDrops returns the number of audited machine drops the
// shared classifier could not explain (zero on a healthy machine).
func (t *TACO) UnexplainedDrops() int64 {
	if t.audit == nil {
		return 0
	}
	return t.audit.unexplained
}

// isLocal reports whether the forwarding program would deliver addr to
// the host queue as one of the router's own unicast addresses.
func (t *TACO) isLocal(addr ipv6.Addr) bool {
	for _, a := range t.localAddrs {
		if a == addr {
			return true
		}
	}
	return false
}

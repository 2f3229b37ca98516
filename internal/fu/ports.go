package fu

import "taco/internal/tta"

// The constructors of a unit's port table (tta.PortTable): a writable
// socket names the (value, armed) pair of its latch or trigger, a
// readable one its register or — when the value is derived from other
// state on demand — a getter.

func operand(name string, l *latch) tta.Port {
	return tta.Port{SocketSpec: tta.SocketSpec{Name: name, Kind: tta.Operand}, Val: &l.pend, Armed: &l.dirty}
}

func trig(name string, t *trigger) tta.Port {
	return tta.Port{SocketSpec: tta.SocketSpec{Name: name, Kind: tta.Trigger}, Val: &t.val, Armed: &t.fired}
}

func result(name string, r *uint32) tta.Port {
	return tta.Port{SocketSpec: tta.SocketSpec{Name: name, Kind: tta.Result}, Reg: r}
}

func computed(name string, get func() uint32) tta.Port {
	return tta.Port{SocketSpec: tta.SocketSpec{Name: name, Kind: tta.Result}, Get: get}
}

// boolWord is a flag as a result socket reads it: 1 or 0.
func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func register(name string, l *latch) tta.Port {
	return tta.Port{SocketSpec: tta.SocketSpec{Name: name, Kind: tta.Register},
		Reg: &l.cur, Val: &l.pend, Armed: &l.dirty}
}

func flag(name string, f *bool) tta.Line { return tta.Line{Name: name, Flag: f} }

func computedFlag(name string, get func() bool) tta.Line { return tta.Line{Name: name, Get: get} }

package tta

import (
	"fmt"
	"strings"
)

// Describe renders the machine's architecture as text — the textual
// counterpart of the paper's Figure 2 block diagram: functional units,
// their sockets on the interconnection network, the bus count, and the
// signal lines into the network controller.
func (m *Machine) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TACO architecture %q\n", m.name)
	fmt.Fprintf(&b, "  interconnection network: %d bus(es), 32-bit\n", m.buses)
	fmt.Fprintf(&b, "  network controller sockets: %s (jump), %s (halt)\n", ncJump, ncHalt)
	fmt.Fprintf(&b, "  functional units (%d):\n", len(m.units))
	for _, u := range m.units {
		t := u.Ports()
		fmt.Fprintf(&b, "    %-8s", t.Name)
		var parts []string
		for _, p := range t.Sockets {
			parts = append(parts, fmt.Sprintf("%s(%s)", p.Name, shortKind(p.Kind)))
		}
		fmt.Fprintf(&b, " sockets: %s\n", strings.Join(parts, " "))
		if len(t.Lines) > 0 {
			sigs := make([]string, len(t.Lines))
			for i, l := range t.Lines {
				sigs[i] = l.Name
			}
			fmt.Fprintf(&b, "             signals: %s\n", strings.Join(sigs, " "))
		}
	}
	fmt.Fprintf(&b, "  total sockets: %d, total signal lines: %d\n",
		len(m.sockets), len(m.signals))
	return b.String()
}

func shortKind(k SocketKind) string {
	switch k {
	case Operand:
		return "O"
	case Trigger:
		return "T"
	case Result:
		return "R"
	case Register:
		return "RW"
	}
	return "?"
}

package gen

import (
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/rtable"
	"taco/internal/tta"
)

func testMachine(t *testing.T, cfg fu.Config) *tta.Machine {
	t.Helper()
	tbl := rtable.New(cfg.Table)
	m, _, err := fu.NewRouterMachine(cfg, tbl, linecard.NewBank(5))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVHDLStructure(t *testing.T) {
	cfg := fu.Config3Bus3FU(rtable.Sequential)
	m := testMachine(t, cfg)
	v, err := VHDLTopLevel(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"entity taco_3bus_3cnt_3cmp_3m is",
		"architecture structural of",
		"signal bus0_data", "signal bus1_data", "signal bus2_data",
		"component taco_counter",
		"component taco_matcher",
		"u_cnt0 : taco_counter",
		"u_cnt2 : taco_counter", // replication reflected
		"u_mat2 : taco_matcher",
		"u_rtu : taco_rtu_sequential",
		"u_ippu : taco_ippu",
		"taco_network_controller",
		"SOCKET_BASE",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("VHDL missing %q", want)
		}
	}
	// A 1-bus machine must not declare bus1.
	cfg1 := fu.Config1Bus1FU(rtable.Sequential)
	m1 := testMachine(t, cfg1)
	v1, err := VHDLTopLevel(cfg1, m1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(v1, "bus1_data") {
		t.Error("1-bus VHDL declares bus1")
	}
	if strings.Contains(v1, "u_cnt1 ") {
		t.Error("1-FU VHDL instantiates cnt1")
	}
}

func TestVHDLDeterministic(t *testing.T) {
	cfg := fu.Config3Bus1FU(rtable.CAM)
	a, err := VHDLTopLevel(cfg, testMachine(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	b, err := VHDLTopLevel(cfg, testMachine(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("VHDL generation not deterministic")
	}
}

func TestComponentLibraryCoversTopLevel(t *testing.T) {
	// Every component the top level instantiates must exist in the
	// library, with an operation body, for every configuration and
	// table backend.
	for _, kind := range rtable.PaperKinds {
		for _, cfg := range fu.PaperConfigs(kind) {
			m := testMachine(t, cfg)
			lib := ComponentLibrary(cfg, m)
			for _, name := range m.UnitNames() {
				comp := componentName(name, cfg.Table)
				if _, ok := lib[comp]; !ok {
					t.Errorf("no library component for %s (unit %s)", comp, name)
				}
				if _, ok := bodies[comp]; !ok {
					t.Errorf("no operation body for %s (unit %s)", comp, name)
				}
			}
			if _, ok := lib["taco_network_controller"]; !ok {
				t.Error("no network controller component")
			}
		}
	}
}

func TestComponentLibraryStructure(t *testing.T) {
	cfg := fu.Config1Bus1FU(rtable.CAM)
	lib := ComponentLibrary(cfg, testMachine(t, cfg))
	for name, src := range lib {
		for _, want := range []string{
			"entity " + name + " is",
			"architecture behavioural of " + name,
			"SOCKET_BASE",
		} {
			if !strings.Contains(src, want) {
				t.Errorf("%s: missing %q", name, want)
			}
		}
	}
	// Trigger strobes decode distinct socket offsets after the operands.
	cnt := lib["taco_counter"]
	if !strings.Contains(cnt, "SOCKET_BASE + 2") { // first trigger after 2 operands
		t.Error("counter trigger decode offset wrong")
	}
}

func TestWriteLibraryDeterministic(t *testing.T) {
	cfg := fu.Config1Bus1FU(rtable.Sequential)
	m := testMachine(t, cfg)
	a, b := WriteLibrary(cfg, m), WriteLibrary(cfg, m)
	if a != b {
		t.Error("library output not deterministic")
	}
	if len(a) < 2000 {
		t.Errorf("library suspiciously small: %d bytes", len(a))
	}
}

var (
	instanceRE = regexp.MustCompile(`(?m)^  u_(\w+) : (\w+)\n    generic map \(SOCKET_BASE => (\d+)\)`)
	entityRE   = regexp.MustCompile(`(?m)^-- TACO functional unit: (\w+)\n`)
	triggerRE  = regexp.MustCompile(`w_(\w+) <= bus_we when unsigned\(bus_dst\) = SOCKET_BASE \+ (\d+) `)
	operandRE  = regexp.MustCompile(`unsigned\(bus_dst\) = SOCKET_BASE \+ (\d+) then (\w+)_reg <= bus_data`)
	registerRE = regexp.MustCompile(`(?m)^  signal (\w+)_reg : `)
	lineRE     = regexp.MustCompile(`(?m)^  signal sig_(\w+) : std_logic; -- to network controller$`)
)

// decoded is what one library component declares: the offset from
// SOCKET_BASE of each operand and trigger socket it decodes, the result
// sockets it holds a register for, and its signal lines.
type decoded struct {
	offsets map[string]int
	results []string
	lines   []string
}

// parseLibrary reads every component of a WriteLibrary file.
func parseLibrary(lib string) map[string]decoded {
	out := map[string]decoded{}
	heads := entityRE.FindAllStringSubmatchIndex(lib, -1)
	for i, h := range heads {
		end := len(lib)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		body := lib[h[1]:end]
		d := decoded{offsets: map[string]int{}}
		for _, m := range triggerRE.FindAllStringSubmatch(body, -1) {
			d.offsets[m[1]], _ = strconv.Atoi(m[2])
		}
		for _, m := range operandRE.FindAllStringSubmatch(body, -1) {
			d.offsets[m[2]], _ = strconv.Atoi(m[1])
		}
		// Every operand and result socket has a register; the ones no
		// bus write latches are the results.
		for _, m := range registerRE.FindAllStringSubmatch(body, -1) {
			if _, operand := d.offsets[m[1]]; !operand {
				d.results = append(d.results, m[1])
			}
		}
		for _, m := range lineRE.FindAllStringSubmatch(body, -1) {
			d.lines = append(d.lines, m[1])
		}
		out[lib[h[2]:h[3]]] = d
	}
	return out
}

// The generated hardware is the simulated machine, socket for socket:
// for every unit of the nine Table 1 instances, its component decodes
// each operand and trigger socket at the address the machine gave it
// (SOCKET_BASE from the top level plus the offset from the library is
// m.Socket("<unit>.<socket>")), and declares exactly the unit's result
// sockets and signal lines, in port-table order.
func TestSocketDecodeMatchesMachine(t *testing.T) {
	for _, kind := range rtable.PaperKinds {
		for _, cfg := range fu.PaperConfigs(kind) {
			m := testMachine(t, cfg)
			top, err := VHDLTopLevel(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			lib := parseLibrary(WriteLibrary(cfg, m))
			// One instance per unit in machine order, then the network
			// controller.
			instances := instanceRE.FindAllStringSubmatch(top, -1)
			if n := len(instances); n != len(m.Units())+1 || instances[n-1][2] != "taco_network_controller" {
				t.Fatalf("%s: %d instances in the top level, machine has %d units", cfg.Name, n, len(m.Units()))
			}
			instances = instances[:len(m.Units())]
			for i, in := range instances {
				p := m.Units()[i].Ports()
				unit, comp := p.Name, lib[in[2]]
				if in[1] != vhdlIdent(unit) {
					t.Fatalf("%s: instance %d is u_%s, unit %s", cfg.Name, i, in[1], unit)
				}
				base, _ := strconv.Atoi(in[3])
				var decodes int
				var results, lines []string
				for _, sock := range p.Sockets {
					switch sock.Kind {
					case tta.Operand, tta.Trigger:
						decodes++
					case tta.Result:
						results = append(results, sock.Name)
					}
				}
				for _, l := range p.Lines {
					lines = append(lines, l.Name)
				}
				if len(comp.offsets) != decodes {
					t.Errorf("%s: %s decodes %d sockets, unit %s has %d operands and triggers", cfg.Name, in[2], len(comp.offsets), unit, decodes)
				}
				for sock, off := range comp.offsets {
					id, err := m.Socket(unit + "." + sock)
					if err != nil || int(id) != base+off {
						t.Errorf("%s: %s.%s decodes SOCKET_BASE %d + %d, machine socket %d (%v)", cfg.Name, unit, sock, base, off, id, err)
					}
				}
				if !slices.Equal(comp.results, results) {
					t.Errorf("%s: %s declares results %v, unit %s has %v", cfg.Name, in[2], comp.results, unit, results)
				}
				if !slices.Equal(comp.lines, lines) {
					t.Errorf("%s: %s declares signal lines %v, unit %s has %v", cfg.Name, in[2], comp.lines, unit, lines)
				}
			}
		}
	}
}

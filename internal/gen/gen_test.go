package gen

import (
	"regexp"
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
		"u_rtu : taco_rtu",
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
			lib := ComponentLibrary(m)
			for _, name := range m.UnitNames() {
				comp := componentName(name)
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
	lib := ComponentLibrary(testMachine(t, fu.Config1Bus1FU(rtable.CAM)))
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
	m := testMachine(t, fu.Config1Bus1FU(rtable.Sequential))
	a, b := WriteLibrary(m), WriteLibrary(m)
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
)

// The generated hardware decodes each operand and trigger socket at the
// address the machine gave it: SOCKET_BASE (from the top level) plus the
// socket's offset (from the library) is m.Socket("<unit>.<socket>"), for
// every unit of the nine Table 1 instances.
func TestSocketDecodeMatchesMachine(t *testing.T) {
	for _, kind := range rtable.PaperKinds {
		for _, cfg := range fu.PaperConfigs(kind) {
			m := testMachine(t, cfg)
			top, err := VHDLTopLevel(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			// decode[component][socket] is the socket's offset from
			// SOCKET_BASE.
			decode := map[string]map[string]int{}
			lib := WriteLibrary(m)
			heads := entityRE.FindAllStringSubmatchIndex(lib, -1)
			for i, h := range heads {
				end := len(lib)
				if i+1 < len(heads) {
					end = heads[i+1][0]
				}
				body := lib[h[1]:end]
				offsets := map[string]int{}
				for _, d := range triggerRE.FindAllStringSubmatch(body, -1) {
					offsets[d[1]], _ = strconv.Atoi(d[2])
				}
				for _, d := range operandRE.FindAllStringSubmatch(body, -1) {
					offsets[d[2]], _ = strconv.Atoi(d[1])
				}
				decode[lib[h[2]:h[3]]] = offsets
			}
			// One instance per unit in machine order, then the network
			// controller.
			instances := instanceRE.FindAllStringSubmatch(top, -1)
			if n := len(instances); n != len(m.Units())+1 || instances[n-1][2] != "taco_network_controller" {
				t.Fatalf("%s: %d instances in the top level, machine has %d units", cfg.Name, n, len(m.Units()))
			}
			instances = instances[:len(m.Units())]
			for i, in := range instances {
				p := m.Units()[i].Ports()
				unit, comp := p.Name, in[2]
				if in[1] != vhdlIdent(unit) {
					t.Fatalf("%s: instance %d is u_%s, unit %s", cfg.Name, i, in[1], unit)
				}
				// taco_rtu's socket map is typed by hand for all three
				// backends and does not match any one of them (ROADMAP
				// item 25(b)); that fix moves the pinned library.
				if comp == "taco_rtu" {
					continue
				}
				base, _ := strconv.Atoi(in[3])
				var want int
				for _, sock := range p.Sockets {
					if sock.Kind == tta.Operand || sock.Kind == tta.Trigger {
						want++
					}
				}
				if len(decode[comp]) != want {
					t.Errorf("%s: %s decodes %d sockets, unit %s has %d operands and triggers", cfg.Name, comp, len(decode[comp]), unit, want)
				}
				for sock, off := range decode[comp] {
					id, err := m.Socket(unit + "." + sock)
					if err != nil || int(id) != base+off {
						t.Errorf("%s: %s.%s decodes SOCKET_BASE %d + %d, machine socket %d (%v)", cfg.Name, unit, sock, base, off, id, err)
					}
				}
			}
		}
	}
}

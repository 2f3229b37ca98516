package gen

import (
	"encoding/json"
	"strings"
	"testing"

	"taco/internal/estimate"
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

func TestGenerateAllModels(t *testing.T) {
	cfg := fu.Config3Bus3FU(rtable.BalancedTree)
	m := testMachine(t, cfg)
	models, err := Generate(cfg, m, estimate.Default180nm())
	if err != nil {
		t.Fatal(err)
	}
	if models.VHDL == "" || models.JSON == "" || models.Matlab == "" {
		t.Fatal("empty model output")
	}
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

func TestSimDescriptionRoundTrips(t *testing.T) {
	cfg := fu.Config3Bus1FU(rtable.CAM)
	m := testMachine(t, cfg)
	js, err := SimDescription(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal([]byte(js), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["buses"].(float64) != 3 {
		t.Errorf("buses = %v", decoded["buses"])
	}
	if decoded["routingTable"].(string) != "cam" {
		t.Errorf("routingTable = %v", decoded["routingTable"])
	}
	units := decoded["units"].([]interface{})
	if len(units) != len(m.Units()) {
		t.Errorf("%d units serialised, machine has %d", len(units), len(m.Units()))
	}
}

func TestMatlabScriptContents(t *testing.T) {
	cfg := fu.Config3Bus3FU(rtable.BalancedTree)
	s := MatlabScript(cfg, estimate.Default180nm())
	for _, want := range []string{
		"tech.fmax", "tech.vdd", "cfg.buses       = 3",
		"cfg.matchers    = 3", "cfg.maskers     = 1",
		"P(f) = Ceff",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Matlab script missing %q", want)
		}
	}
	// The script carries no per-module model, so it may not claim to
	// track one.
	if strings.Contains(s, "lockstep") {
		t.Error("Matlab script claims a lockstep no test checks")
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

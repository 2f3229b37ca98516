package program

import (
	"strings"
	"testing"

	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/rtable"
	"taco/internal/tta"
)

func computeMachine(t *testing.T, cfg fu.Config) (*tta.Machine, *fu.MMU) {
	t.Helper()
	m, err := fu.NewComputeMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mmu *fu.MMU
	for _, u := range m.Units() {
		if mm, ok := u.(*fu.MMU); ok {
			mmu = mm
		}
	}
	if mmu == nil {
		t.Fatal("no MMU on compute machine")
	}
	return m, mmu
}

func TestFigure3BothVersionsCompute(t *testing.T) {
	for _, cfgFn := range []func(rtable.Kind) fu.Config{
		fu.Config1Bus1FU, fu.Config3Bus1FU, fu.Config3Bus3FU,
	} {
		cfg := cfgFn(0)
		m, mmu := computeMachine(t, cfg)
		cases := []struct{ b, c, want uint32 }{
			{5, 6, 4}, // (5*2+6)/4 = 4
			{0, 0, 0},
			{10, 20, 10}, // (20+20)/4
			{100, 3, 50}, // (200+3)/4 = 50 (integer)
		}
		for _, c := range cases {
			f3, err := Figure3(m, c.b, c.c)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			got, err := RunFigure3(m, f3.NonOptimized, mmu.Peek)
			if err != nil {
				t.Fatalf("%s non-opt: %v", cfg.Name, err)
			}
			if got != c.want {
				t.Errorf("%s non-opt (%d,%d) = %d, want %d", cfg.Name, c.b, c.c, got, c.want)
			}
			got, err = RunFigure3(m, f3.Optimized, mmu.Peek)
			if err != nil {
				t.Fatalf("%s opt: %v", cfg.Name, err)
			}
			if got != c.want {
				t.Errorf("%s opt (%d,%d) = %d, want %d", cfg.Name, c.b, c.c, got, c.want)
			}
		}
	}
}

func TestFigure3OptimizationShrinksCode(t *testing.T) {
	m, _ := computeMachine(t, fu.Config3Bus1FU(0))
	f3, err := Figure3(m, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if f3.MovesOpt >= f3.MovesNonOpt {
		t.Errorf("optimization did not reduce moves: %d -> %d", f3.MovesNonOpt, f3.MovesOpt)
	}
	if f3.CyclesOpt > f3.CyclesNonOpt {
		t.Errorf("optimization increased cycles: %d -> %d", f3.CyclesNonOpt, f3.CyclesOpt)
	}
	t.Logf("Figure 3: %d moves/%d cycles non-optimized, %d moves/%d cycles optimized",
		f3.MovesNonOpt, f3.CyclesNonOpt, f3.MovesOpt, f3.CyclesOpt)
}

func TestForwardingGeneratesForAllConfigs(t *testing.T) {
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, cfg := range fu.PaperConfigs(kind) {
			tbl := rtable.New(kind)
			bank := newBank(t)
			m, _, err := fu.NewRouterMachine(cfg, tbl, bank)
			if err != nil {
				t.Fatal(err)
			}
			prog, res, err := Forwarding(m, cfg)
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, cfg.Name, err)
			}
			if err := prog.Validate(cfg.Buses); err != nil {
				t.Fatalf("%v/%s: invalid program: %v", kind, cfg.Name, err)
			}
			if _, ok := prog.Labels["main"]; !ok {
				t.Errorf("%v/%s: no main label", kind, cfg.Name)
			}
			if res.MovesOut > res.MovesIn {
				t.Errorf("%v/%s: optimization added moves", kind, cfg.Name)
			}
			// A 1-bus program has at most 1 move per instruction; wider
			// configs should actually exploit their buses somewhere.
			if cfg.Buses > 1 {
				packed := false
				for _, in := range prog.Ins {
					if len(in.Moves) > 1 {
						packed = true
						break
					}
				}
				if !packed {
					t.Errorf("%v/%s: no instruction uses more than one bus", kind, cfg.Name)
				}
			}
		}
	}
}

// Three places declare which kinds have a forwarding kernel:
// rtable.Backend.Paper, fu.RTUKinds and Forwarding's switch. They name
// the same kinds; for any other kind a router machine fails naming the
// kind, and Forwarding (on a machine without an RTU) says it has no
// program rather than failing on a missing socket.
func TestForwardingRejectsTrie(t *testing.T) {
	cfg := fu.Config1Bus1FU(rtable.Trie)
	m, err := fu.NewComputeMachine(fu.Config1Bus1FU(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Forwarding(m, cfg); err == nil ||
		!strings.Contains(err.Error(), "no forwarding program") {
		t.Errorf("err = %v", err)
	}
}

func TestKernelKindsAgree(t *testing.T) {
	bare, err := fu.NewComputeMachine(fu.Config1Bus1FU(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range rtable.Kinds {
		paper := rtable.Backends[k].Paper
		_, rtu := fu.RTUKinds[k]
		cfg := fu.Config3Bus1FU(k)
		m, _, err := fu.NewRouterMachine(cfg, rtable.New(k), newBank(t))
		if err != nil {
			if rtu || !strings.Contains(err.Error(), k.String()) {
				t.Errorf("%v: NewRouterMachine: %v", k, err)
			}
			m = bare
		}
		_, _, err = Forwarding(m, cfg)
		kernel := err == nil
		if err != nil && !strings.Contains(err.Error(), "no forwarding program for "+k.String()+" tables") {
			t.Errorf("%v: Forwarding: %v", k, err)
		}
		if paper != rtu || rtu != kernel {
			t.Errorf("%v: Backend.Paper %v, in fu.RTUKinds %v, Forwarding builds %v", k, paper, rtu, kernel)
		}
	}
}

func newBank(t *testing.T) *linecard.Bank {
	t.Helper()
	return linecard.NewBank(5)
}

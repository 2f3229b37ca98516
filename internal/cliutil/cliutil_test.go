package cliutil

import (
	"slices"
	"strings"
	"testing"

	"taco/internal/rtable"
)

func TestKindsByNames(t *testing.T) {
	got, err := KindsByNames(" seq,,TREE, cam ,tcam,")
	want := []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM, rtable.TiledTCAM}
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("KindsByNames = %v, %v; want %v", got, err, want)
	}
	if _, err := KindsByNames("tree,hash"); err == nil || !strings.Contains(err.Error(), `"hash"`) {
		t.Fatalf("unknown kind in a list: err = %v", err)
	}
}

func TestParseSizes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
		bad  string // token the error must name; "" when parsing succeeds
	}{
		{"2000,10000", []int{2000, 10000}, ""},
		{"2000,,10000", []int{2000, 10000}, ""},
		{" 4 , 6 ,", []int{4, 6}, ""},
		{"4,,6", []int{4, 6}, ""},
		{"0", nil, `"0"`},
		{"4,-2", nil, `"-2"`},
		{"4,x", nil, `"x"`},
		{"1e3", nil, `"1e3"`},
		{",,", nil, "no sizes"},
	} {
		got, err := ParseSizes(c.in)
		if c.bad == "" {
			if err != nil || !slices.Equal(got, c.want) {
				t.Errorf("ParseSizes(%q) = %v, %v; want %v", c.in, got, err, c.want)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("ParseSizes(%q) = %v, %v; want an error naming %s", c.in, got, err, c.bad)
		}
	}
}

func TestConfigByName(t *testing.T) {
	for in, buses := range map[string]int{"1bus": 1, "3bus1fu": 3, "3BUS3FU": 3} {
		cfg, err := ConfigByName(in, rtable.CAM)
		if err != nil {
			t.Errorf("ConfigByName(%q): %v", in, err)
			continue
		}
		if cfg.Buses != buses || cfg.Table != rtable.CAM {
			t.Errorf("ConfigByName(%q) = %+v", in, cfg)
		}
	}
	cfg, err := ConfigByName("3bus3fu", rtable.Sequential)
	if err != nil || cfg.Matchers != 3 {
		t.Errorf("3bus3fu = %+v, %v", cfg, err)
	}
	if _, err := ConfigByName("5bus", rtable.CAM); err == nil {
		t.Error("unknown config accepted")
	}
}

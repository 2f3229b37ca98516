// Package cliutil holds the flag-parsing helpers shared by the cmd/
// tools: lists of routing-table kinds and sizes, and architecture
// instance names.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"taco/internal/fu"
	"taco/internal/rtable"
)

// KindsByNames parses a comma-separated list of table implementation
// names, each as rtable.ParseKind reads it.
func KindsByNames(list string) ([]rtable.Kind, error) {
	var kinds []rtable.Kind
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, err := rtable.ParseKind(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// ParseSizes parses a comma-separated list of positive integers
// ("2000,10000"), skipping empty entries.
func ParseSizes(list string) ([]int, error) {
	var sizes []int
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q: want a positive integer", s)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no sizes given in %q", list)
	}
	return sizes, nil
}

// ConfigByName parses an architecture instance name for a table kind.
func ConfigByName(name string, kind rtable.Kind) (fu.Config, error) {
	switch strings.ToLower(name) {
	case "1bus", "1bus1fu":
		return fu.Config1Bus1FU(kind), nil
	case "3bus", "3bus1fu":
		return fu.Config3Bus1FU(kind), nil
	case "3bus3fu":
		return fu.Config3Bus3FU(kind), nil
	}
	return fu.Config{}, fmt.Errorf("unknown config %q (1bus | 3bus1fu | 3bus3fu)", name)
}

// Package cliutil is the command surface the cmd/ tools share: every
// flag more than one tool has, declared once (Command); the run seam
// that parses a tool's arguments, profiles its body and turns its error
// into an exit status; and the parsers of flag values — lists of
// routing-table kinds and sizes, and architecture instance names — whose
// errors are usage errors.
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
	return parseList(list, rtable.ParseKind)
}

// ParseSizes parses a comma-separated list of positive integers
// ("2000,10000").
func ParseSizes(list string) ([]int, error) {
	sizes, err := parseList(list, func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("bad size %q: want a positive integer", s)
		}
		return n, nil
	})
	if err == nil && len(sizes) == 0 {
		err = Usage(fmt.Errorf("no sizes given in %q", list))
	}
	return sizes, err
}

// parseList parses each entry of a comma-separated flag value, skipping
// empty entries.
func parseList[T any](list string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		v, err := parse(s)
		if err != nil {
			return nil, Usage(err)
		}
		out = append(out, v)
	}
	return out, nil
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
	return fu.Config{}, Usage(fmt.Errorf("unknown config %q (1bus | 3bus1fu | 3bus3fu)", name))
}

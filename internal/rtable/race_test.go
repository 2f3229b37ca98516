//go:build race

package rtable_test

func init() { raceEnabled = true }

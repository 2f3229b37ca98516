//go:build race

package net

func init() { raceEnabled = true }

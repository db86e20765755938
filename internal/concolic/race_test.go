//go:build race

package concolic

func init() { raceEnabled = true }

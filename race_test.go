//go:build race

package pos_test

func init() { raceEnabled = true }

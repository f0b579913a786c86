//go:build race

package results

func init() { raceEnabled = true }

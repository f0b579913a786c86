//go:build race

package mgmt

func init() { raceEnabled = true }

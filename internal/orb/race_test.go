//go:build race

package orb

func init() { raceEnabled = true }

//go:build race

package giop

func init() { raceEnabled = true }

//go:build race

package ft

func init() { raceEnabled = true }

//go:build race

package naming

func init() { raceEnabled = true }

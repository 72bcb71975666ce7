//go:build race

package experiments

// sync.Pool drops a random quarter of its Puts under the race detector.
func init() { raceEnabled = true }

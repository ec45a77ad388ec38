//go:build !race

package serve

// raceEnabled reports whether the race detector is active; allocation pins
// are skipped under -race, where sync.Pool drops items at random.
const raceEnabled = false

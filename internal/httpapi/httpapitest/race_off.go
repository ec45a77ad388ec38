//go:build !race

package httpapitest

// raceEnabled reports whether the race detector is active: it makes
// sync.Pool drop pooled values at random, so allocation pins skip under it.
const raceEnabled = false

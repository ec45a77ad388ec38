//go:build !race

package httpapi_test

// raceEnabled reports whether the race detector is active; the decoder's
// speed and allocation assertions are skipped under -race, whose
// instrumentation slows and allocates what the production build does not.
const raceEnabled = false

//go:build !linux

package persist

// Outside Linux the standard library offers neither madvise nor mincore:
// mappings are served without an access hint, and residency is unknown.

func adviseRandom([]byte) {}

func residentBytes([]byte) (int64, bool) { return 0, false }

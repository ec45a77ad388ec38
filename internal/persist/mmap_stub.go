//go:build !(linux || darwin || freebsd || netbsd || openbsd)

package persist

import (
	"errors"
	"os"
)

// Portability stub: where mmap is not wired up, openSegmentFile never maps
// (mmapSupported is false) and mapped recovery reads each file onto the
// heap.

const mmapSupported = false

func mmapFile(*os.File, int) ([]byte, error) {
	return nil, errors.New("persist: mmap not supported on this platform")
}

func munmapFile([]byte) error { return nil }

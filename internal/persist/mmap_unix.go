//go:build linux || darwin || freebsd || netbsd || openbsd

package persist

import (
	"os"
	"syscall"
)

const mmapSupported = true

// mmapFile maps size bytes of f read-only and shared: the mapping observes
// the file as written and costs no anonymous memory.
func mmapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(data []byte) error { return syscall.Munmap(data) }

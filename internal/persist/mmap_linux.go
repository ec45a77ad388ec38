package persist

import (
	"syscall"
	"unsafe"
)

// adviseRandom tells the kernel a mapping is read at random, so a fault
// does not read ahead into pages an index descent will not touch. Best
// effort: a refused hint changes paging, never the bytes.
func adviseRandom(data []byte) { _ = syscall.Madvise(data, syscall.MADV_RANDOM) }

// residentBytes counts the resident bytes of a mapping via mincore(2): one
// status byte per page, low bit set when the page is in core. The count is
// a direct proxy for "queries over this mapping will not fault" — the
// page-fault signal the serving metrics export.
func residentBytes(data []byte) (int64, bool) {
	pageSize := syscall.Getpagesize()
	pages := (len(data) + pageSize - 1) / pageSize
	if pages == 0 {
		return 0, true
	}
	vec := make([]byte, pages)
	_, _, errno := syscall.Syscall(
		syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(&data[0])),
		uintptr(len(data)),
		uintptr(unsafe.Pointer(&vec[0])),
	)
	if errno != 0 {
		return 0, false
	}
	var resident int64
	for _, b := range vec {
		if b&1 != 0 {
			resident += int64(pageSize)
		}
	}
	return min(resident, int64(len(data))), true
}

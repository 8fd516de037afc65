package rt

import (
	"syscall"
	"unsafe"
)

// adviseHuge asks the kernel to back the whole huge pages of s, which
// starts on a huge-page boundary and is not yet touched, with
// transparent huge pages, and reports whether it agreed. Under
// transparent_hugepage "never" the advice is taken and changes nothing.
func adviseHuge(s []float64) bool {
	whole := 8 * len(s) &^ (hugePage - 1)
	return syscall.Madvise(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), whole), syscall.MADV_HUGEPAGE) == nil
}

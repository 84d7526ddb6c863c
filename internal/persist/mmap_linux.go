//go:build linux

package persist

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// mmapSupported reports whether this platform can serve segment files
// through a shared read-only memory mapping. Mapping only pays off when
// the file's little-endian words can be aliased in place, so big-endian
// hosts (none we run on, but the check is cheap) use the portable
// read-into-buffer path instead.
func mmapSupported() bool { return hostLittleEndian }

var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mmapFile maps path read-only and returns the file bytes plus a release
// callback. The mapping is shared: clean pages live in the OS page cache,
// are reclaimable under memory pressure, and fault in at 4K granularity —
// a scan that skips most blocks never touches most of the file.
func mmapFile(path string) (b []byte, release func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, func() {}, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("%s: file too large to map", path)
	}
	b, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("mmap %s: %w", path, err)
	}
	return b, func() { _ = syscall.Munmap(b) }, nil
}

// aliasWords reinterprets an 8-aligned little-endian byte slice as uint64
// words without copying. The caller guarantees b comes from mmapFile at
// an 8-aligned offset and len(b) is a multiple of 8.
func aliasWords(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

//go:build unix

package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedWindow returns a size-element slice whose last element is the
// last addressable one: the next byte lies in a PROT_NONE page, so any
// load or store past the slice's end kills the test binary with a
// fault instead of going unnoticed.
func guardedWindow(t *testing.T, size int) []Elem { return guarded[Elem](t, size) }

// guarded is guardedWindow for any element type: Adam's moments are
// float64 whatever Elem is.
func guarded[T any](t *testing.T, size int) []T {
	t.Helper()
	esz := int(unsafe.Sizeof(*new(T)))
	page := syscall.Getpagesize()
	bytes := (size*esz + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, bytes+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // unmapping scratch cannot meaningfully fail
	if err := syscall.Mprotect(mem[bytes:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[bytes-size*esz])), size)
}

// guardedHead is guardedWindow's mirror: the slice's first element is
// the first addressable one, the page before it PROT_NONE, so any load
// or store before the slice's start faults. size must be positive.
func guardedHead(t *testing.T, size int) []Elem {
	t.Helper()
	page := syscall.Getpagesize()
	bytes := (size*ElemBytes + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, page+bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // unmapping scratch cannot meaningfully fail
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*Elem)(unsafe.Pointer(&mem[page])), size)
}

//go:build !unix

package tensor

import "testing"

// guardedWindow, guarded and guardedHead have no guard page to offer on this
// platform; see guard_unix_test.go.
func guardedWindow(t *testing.T, size int) []Elem { return make([]Elem, size) }

func guarded[T any](t *testing.T, size int) []T { return make([]T, size) }

func guardedHead(t *testing.T, size int) []Elem { return make([]Elem, size) }

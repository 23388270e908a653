//go:build !unix

package tensor

import "testing"

// guardedWindow has no guard page to offer on this platform; see
// guard_unix_test.go.
func guardedWindow(t *testing.T, size int) []Elem { return make([]Elem, size) }

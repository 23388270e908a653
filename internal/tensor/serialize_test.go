package tensor

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestDecodeSteadyStateAllocs pins the serialize.go promise: decoding a
// frame into a tensor that already has its shape or capacity allocates
// nothing — ReadInPlace, ReadFrom and CheckFrame, from a *bytes.Reader
// and through a bufio.Reader, for a ring-sized frame and one whose
// payload spans several decode chunks, in both wire dtypes.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	budget := 0.0
	if raceEnabled {
		budget = 4 // the race-mode sync.Pool drops entries at random
	}
	rng := rand.New(rand.NewSource(79))
	for _, n := range []int{32, 3000} {
		src := randTensor(rng, n/2, 2)
		for _, dt := range []byte{DTypeF64, DTypeF32} {
			frame := src.AppendBinaryAs(nil, dt)
			dst, fresh := New(n/2, 2), New(n/2, 2)
			var br bytes.Reader
			buf := bufio.NewReader(&br)
			for _, c := range []struct {
				name string
				run  func() error
			}{
				{"ReadInPlace/bytes.Reader", func() error {
					br.Reset(frame)
					_, err := dst.ReadInPlace(&br)
					return err
				}},
				{"ReadFrom/bytes.Reader", func() error {
					br.Reset(frame)
					_, err := fresh.ReadFrom(&br)
					return err
				}},
				{"ReadInPlace/bufio.Reader", func() error {
					br.Reset(frame)
					buf.Reset(&br)
					_, err := dst.ReadInPlace(buf)
					return err
				}},
				{"ReadFrom/bufio.Reader", func() error {
					br.Reset(frame)
					buf.Reset(&br)
					_, err := fresh.ReadFrom(buf)
					return err
				}},
				{"CheckFrame", func() error {
					_, err := dst.CheckFrame(frame)
					return err
				}},
			} {
				if err := c.run(); err != nil {
					t.Fatalf("%s, %d elements, dtype %#x: %v", c.name, n, dt, err)
				}
				if allocs := testing.AllocsPerRun(50, func() { _ = c.run() }); allocs > budget {
					t.Fatalf("%s, %d elements, dtype %#x: %v allocations per decode, budget %v", c.name, n, dt, allocs, budget)
				}
			}
			tol := 0.0 // a float32 frame rounds a float64 build's values
			if dt == DTypeF32 {
				tol = 1e-6
			}
			if !dst.Equal(fresh, 0) || !dst.Equal(src, tol) {
				t.Fatalf("%d elements, dtype %#x: decoded tensors differ from the source", n, dt)
			}
		}
	}
}

// BenchmarkDecode times ReadInPlace of one frame from a *bytes.Reader:
// 32 elements (a ring-tiny-n8 batch frame) and a 784×512 weight (an
// MNIST discriminator swap), against AppendBinary of the same frame.
func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(83))
	for _, shape := range [][2]int{{16, 2}, {784, 512}} {
		src := randTensor(rng, shape[0], shape[1])
		frame := src.AppendBinary(nil)
		dst := New(shape[0], shape[1])
		var br bytes.Reader
		b.Run(fmt.Sprintf("decode/%dx%d", shape[0], shape[1]), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				br.Reset(frame)
				if _, err := dst.ReadInPlace(&br); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("encode/%dx%d", shape[0], shape[1]), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				frame = src.AppendBinary(frame[:0])
			}
		})
	}
}

package tensor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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

// TestOneCopyCodecMatchesLoop: the one-copy encode of a native-width
// frame is byte for byte the per-element loop it replaces, a frame in
// the other wire dtype still converts through the loop, and every
// decoder reads each back bit for bit. The values include NaNs with
// payload bits, ±0, ±Inf and subnormals of both widths; the comparison
// is on bit patterns, so a NaN that lost its payload would fail it.
func TestOneCopyCodecMatchesLoop(t *testing.T) {
	var vals []Elem
	for _, b := range []uint64{
		0x7FF0_0000_0000_0001, 0xFFF8_DEAD_BEEF_0001, 0x7FF8_0000_0000_0000,
		0x8000_0000_0000_0000, 0, 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000,
		1, 0x800F_FFFF_FFFF_FFFF, 0x3FF0_0000_0000_0001,
	} {
		vals = append(vals, Elem(math.Float64frombits(b)))
	}
	for _, b := range []uint32{0x7F80_0001, 0xFFC0_BEEF, 0x8000_0000, 1, 0x807F_FFFF, 0x7F7F_FFFF} {
		vals = append(vals, Elem(math.Float32frombits(b)))
	}
	rng := rand.New(rand.NewSource(97))
	for len(vals) < 3*1024+6 { // past one decode chunk, ragged
		vals = append(vals, Elem(rng.NormFloat64()))
	}
	src := FromSlice(vals, 2, len(vals)/2)
	for _, dt := range []byte{DTypeF64, DTypeF32} {
		// The per-element reference: framing, then every element through
		// math.Float{64,32}bits.
		want := append([]byte{dt}, 2, 0, 0, 0)
		want = binary.LittleEndian.AppendUint32(want, 2)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(vals)/2))
		wantData := make([]Elem, len(vals))
		for i, v := range vals {
			if dt == DTypeF64 {
				want = binary.LittleEndian.AppendUint64(want, math.Float64bits(float64(v)))
				wantData[i] = Elem(math.Float64frombits(binary.LittleEndian.Uint64(want[len(want)-8:])))
			} else {
				want = binary.LittleEndian.AppendUint32(want, math.Float32bits(float32(v)))
				wantData[i] = Elem(math.Float32frombits(binary.LittleEndian.Uint32(want[len(want)-4:])))
			}
		}
		if got := src.AppendBinaryAs([]byte{0xAA}, dt); !bytes.Equal(got[1:], want) || got[0] != 0xAA {
			t.Fatalf("dtype %#x: encoding differs from the per-element loop", dt)
		}
		for _, c := range []struct {
			name   string
			decode func(dst *Tensor, r io.Reader) (int64, error)
			stream bool
		}{
			{"ReadFrom/bytes.Reader", (*Tensor).ReadFrom, false},
			{"ReadInPlace/bytes.Reader", (*Tensor).ReadInPlace, false},
			{"ReadFrom/stream", (*Tensor).ReadFrom, true},
			{"ReadInPlace/stream", (*Tensor).ReadInPlace, true},
		} {
			var r io.Reader = bytes.NewReader(want)
			if c.stream {
				r = struct{ io.Reader }{r} // hides *bytes.Reader: the loop path
			}
			dst := New(2, len(vals)/2)
			n, err := c.decode(dst, r)
			if err != nil || n != int64(len(want)) {
				t.Fatalf("dtype %#x, %s: read %d of %d bytes: %v", dt, c.name, n, len(want), err)
			}
			if !bytes.Equal(byteView(dst.Data), byteView(wantData)) {
				t.Fatalf("dtype %#x, %s: decoded bits differ from the per-element loop", dt, c.name)
			}
		}
		if _, err := New(2, len(vals)/2).ReadInPlace(bytes.NewReader(want[:len(want)-1])); err == nil {
			t.Fatalf("dtype %#x: truncated frame decoded", dt)
		}
	}
}

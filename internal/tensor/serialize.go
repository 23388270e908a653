package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"
)

// Serialisation uses a small explicit binary framing (dtype byte, shape
// rank, dims, then the raw little-endian payload) rather than gob so
// that the wire size is predictable — the communication-complexity
// experiments (Tables III/IV) account bytes from these encodings.
//
// The leading dtype byte (DTypeF64/DTypeF32) lets a float32 build ship
// 4-byte elements natively and lets either build decode the other's
// frames. Frames written before the dtype byte existed started directly
// with the rank word, whose low byte is 1..8 — disjoint from the dtype
// byte values — so the decoders transparently accept legacy float64
// frames (this is what keeps pre-dtype checkpoints loadable).
//
// The hot wire paths (MD-GAN batches, feedbacks and swaps every
// iteration) use AppendBinary into buffers their owners reuse and the
// in-place decoders, so steady-state messaging neither grows
// bytes.Buffers nor allocates intermediate payload scratch: a decode
// into a tensor that already has the capacity allocates nothing, from a
// *bytes.Reader, a bufio.Reader or any other reader
// (TestDecodeSteadyStateAllocs). On a little-endian host a frame in the
// compiled element width is the storage's own bytes, so encoding it is
// one copy through a byte view of Data (TestOneCopyCodecMatchesLoop);
// the other wire dtype and a big-endian host keep the per-element loop.
// Decoding keeps the chunked loop (ROADMAP item 13 records why).
//
// The decoders' scratch — header bytes, dims, the decoded shape and the
// payload chunk — is pooled (frameScratch), not on the stack: it is
// handed to io.ReadFull, a call through the io.Reader interface that
// escape analysis cannot see through, so stack arrays would move to the
// heap on every call (8,292 B in four allocations per frame, 2.2 µs to
// decode 32 elements against 35 ns to encode them).

// Wire dtype bytes. The values are chosen outside 1..8 (a legacy
// frame's first byte is its rank) so the two framings self-distinguish.
const (
	DTypeF64 byte = 0xF8
	DTypeF32 byte = 0xF4
)

// littleEndian reports whether the host's byte order is the wire's, so
// that a native-width payload is a byte view of Data.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// byteView returns data's storage as bytes, aliasing it.
func byteView(data []Elem) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), len(data)*int(unsafe.Sizeof(Elem(0))))
}

// dtypeSize returns the payload bytes per element of a wire dtype.
func dtypeSize(dt byte) int {
	if dt == DTypeF32 {
		return 4
	}
	return 8
}

// EncodedSize returns the number of bytes WriteTo will produce.
func (t *Tensor) EncodedSize() int64 { return t.EncodedSizeAs(NativeDType) }

// EncodedSizeAs returns the number of bytes AppendBinaryAs(_, dt) will
// produce.
func (t *Tensor) EncodedSizeAs(dt byte) int64 {
	return int64(1 + 4 + 4*len(t.shape) + dtypeSize(dt)*len(t.Data))
}

// AppendBinary appends t's wire framing, with the payload in the
// compiled element width, to dst and returns the extended slice.
// Appending to a buffer with sufficient capacity performs no
// allocation.
func (t *Tensor) AppendBinary(dst []byte) []byte {
	return t.AppendBinaryAs(dst, NativeDType)
}

// AppendBinaryAs appends t's wire framing with the payload encoded in
// the given wire dtype, converting per element when dt is not the
// compiled width (the FP32 feedback compression and the cross-dtype
// tests use this; hot paths use AppendBinary).
func (t *Tensor) AppendBinaryAs(dst []byte, dt byte) []byte {
	dst = append(dst, dt)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.shape)))
	for _, d := range t.shape {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
	}
	switch {
	case dt == NativeDType && littleEndian:
		dst = append(dst, byteView(t.Data)...)
	case dt == DTypeF64:
		for _, v := range t.Data {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(v)))
		}
	case dt == DTypeF32:
		for _, v := range t.Data {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		}
	default:
		panic(fmt.Sprintf("tensor: unknown wire dtype byte %#x", dt))
	}
	return dst
}

// maxDecodeVol caps the element count a decoded frame may claim (2^30
// floats, far beyond any tensor this system ships); the product check
// against it also rejects dimension products that would overflow int,
// and the constant itself fits a 32-bit int.
const maxDecodeVol = 1 << 30

// frameScratch is one decode's scratch; see the file comment.
type frameScratch struct {
	hdr   [4]byte
	dims  [32]byte
	shape [8]int
	chunk [8192]byte // divisible by both element widths
	br    bytes.Reader
}

var frameScratchPool = sync.Pool{New: func() any { return new(frameScratch) }}

// readHeader parses the dtype/rank/dims framing, returning the wire
// dtype, the shape (in sc.shape, valid until sc is reused) and the
// volume. A first byte in 1..8 selects the legacy pre-dtype framing: the
// byte is the low byte of the rank word and the payload is float64.
func readHeader(r io.Reader, sc *frameScratch) (dt byte, shape []int, vol int, read int64, err error) {
	hdr := sc.hdr[:]
	if _, err = io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("tensor: read dtype: %w", err)
	}
	read = 1
	switch hdr[0] {
	case DTypeF64, DTypeF32:
		dt = hdr[0]
		if _, err = io.ReadFull(r, hdr[:4]); err != nil {
			return 0, nil, 0, read, fmt.Errorf("tensor: read rank: %w", err)
		}
		read += 4
	default:
		// Legacy framing: hdr[0] is the low byte of the rank word and an
		// implausible value fails the rank check below.
		dt = DTypeF64
		if _, err = io.ReadFull(r, hdr[1:4]); err != nil {
			return 0, nil, 0, read, fmt.Errorf("tensor: read rank: %w", err)
		}
		read += 3
	}
	rank := int(binary.LittleEndian.Uint32(hdr))
	if rank <= 0 || rank > 8 {
		return 0, nil, 0, read, fmt.Errorf("tensor: implausible rank %d", rank)
	}
	dims := sc.dims[:4*rank]
	if _, err = io.ReadFull(r, dims); err != nil {
		return 0, nil, 0, read, fmt.Errorf("tensor: read dims: %w", err)
	}
	read += int64(4 * rank)
	shape = sc.shape[:0]
	vol = 1
	for i := 0; i < rank; i++ {
		d := int(binary.LittleEndian.Uint32(dims[4*i:]))
		if d <= 0 {
			return 0, nil, 0, read, fmt.Errorf("tensor: non-positive dim %d", d)
		}
		if d > maxDecodeVol/vol {
			return 0, nil, 0, read, fmt.Errorf("tensor: implausible frame volume (dims %v…)", shape)
		}
		shape = append(shape, d)
		vol *= d
	}
	return dt, shape, vol, read, nil
}

// readPayload streams len(data) elements of wire dtype dt from r into
// data through sc's chunk, converting to the compiled element width and
// avoiding a payload-sized byte scratch.
func readPayload(r io.Reader, data []Elem, dt byte, sc *frameScratch) (int64, error) {
	es := dtypeSize(dt)
	chunk := sc.chunk[:]
	read := int64(0)
	for off := 0; off < len(data); {
		want := (len(data) - off) * es
		if want > len(chunk) {
			want = len(chunk)
		}
		if _, err := io.ReadFull(r, chunk[:want]); err != nil {
			return read, fmt.Errorf("tensor: read payload: %w", err)
		}
		read += int64(want)
		if dt == DTypeF32 {
			for i := 0; i < want; i += 4 {
				data[off] = Elem(math.Float32frombits(binary.LittleEndian.Uint32(chunk[i:])))
				off++
			}
		} else {
			for i := 0; i < want; i += 8 {
				data[off] = Elem(math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:])))
				off++
			}
		}
	}
	return read, nil
}

// ReadFrom decodes a tensor previously written with WriteTo (either
// wire dtype, or the legacy pre-dtype float64 framing), replacing t's
// shape and data. Existing capacity is reused when sufficient, so
// decoding repeatedly into the same tensor reaches a steady state with
// no allocation. It implements io.ReaderFrom.
func (t *Tensor) ReadFrom(r io.Reader) (int64, error) {
	// Decode the header into the scratch so a mid-header error cannot
	// leave t with a half-updated shape.
	sc := frameScratchPool.Get().(*frameScratch)
	defer frameScratchPool.Put(sc)
	dt, shape, vol, read, err := readHeader(r, sc)
	if err != nil {
		return read, err
	}
	// When the frame's true extent is knowable (the wire paths all
	// decode from in-memory payloads), a claimed volume beyond it is
	// corrupt: reject before allocating payload-sized storage.
	if br, ok := r.(*bytes.Reader); ok && int64(vol) > int64(br.Len())/int64(dtypeSize(dt)) {
		return read, fmt.Errorf("tensor: frame claims %d elements, %d bytes remain", vol, br.Len())
	}
	t.shape = append(t.shape[:0], shape...)
	if cap(t.Data) >= vol {
		t.Data = t.Data[:vol]
	} else {
		t.Data = make([]Elem, vol)
	}
	n, err := readPayload(r, t.Data, dt, sc)
	return read + n, err
}

// ReadInPlace decodes a frame whose shape must equal t's, streaming the
// payload directly into t.Data with no allocation. It is the swap-path
// primitive: a worker adopting a peer's discriminator decodes every
// parameter straight into its own storage.
func (t *Tensor) ReadInPlace(r io.Reader) (int64, error) {
	sc := frameScratchPool.Get().(*frameScratch)
	defer frameScratchPool.Put(sc)
	dt, read, err := t.readOwnHeader(r, sc)
	if err != nil {
		return read, err
	}
	n, err := readPayload(r, t.Data, dt, sc)
	return read + n, err
}

// readOwnHeader reads a frame header from r and checks it announces
// exactly t's shape.
func (t *Tensor) readOwnHeader(r io.Reader, sc *frameScratch) (dt byte, read int64, err error) {
	dt, shape, _, read, err := readHeader(r, sc)
	if err != nil {
		return 0, read, err
	}
	if len(shape) != len(t.shape) {
		return 0, read, fmt.Errorf("tensor: ReadInPlace rank %d, want %d", len(shape), len(t.shape))
	}
	for i, d := range shape {
		if t.shape[i] != d {
			return 0, read, fmt.Errorf("tensor: ReadInPlace shape %v, want %v", shape, t.shape)
		}
	}
	return dt, read, nil
}

// CheckFrame reports the length of the frame at the front of p if
// ReadInPlace would decode it into t without error — its header is well
// formed and announces t's shape, and its whole payload is present —
// and an error otherwise. Nothing is written: a decoder that must not
// leave its target half-updated checks every frame first.
func (t *Tensor) CheckFrame(p []byte) (int, error) {
	sc := frameScratchPool.Get().(*frameScratch)
	defer frameScratchPool.Put(sc)
	sc.br.Reset(p)
	dt, read, err := t.readOwnHeader(&sc.br, sc)
	sc.br.Reset(nil)
	if err != nil {
		return 0, err
	}
	size := int(read) + dtypeSize(dt)*len(t.Data)
	if size > len(p) {
		return 0, fmt.Errorf("tensor: frame of %d bytes, %d present", size, len(p))
	}
	return size, nil
}

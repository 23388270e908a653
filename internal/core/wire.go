package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/tensor"
)

// Wire encodings for the three MD-GAN message types. The formats are
// explicit binary (tensor framing from internal/tensor plus
// little-endian label/flag fields) so payload sizes are deterministic —
// the byte accounting behind Tables III/IV counts these payloads.

// Message type tags.
const (
	msgBatches  = "batches"  // C→W: the two generated batches
	msgFeedback = "feedback" // W→C: error feedback F_n
	msgSwap     = "swap"     // W→W: discriminator parameters
	msgStop     = "stop"     // C→W: terminate
	msgPing     = "ping"     // C→W: liveness probe of a suspect
	msgPong     = "pong"     // W→C: probe reply (evidence of life)
)

// batchesMsg carries the per-worker payload of step 1 (§IV-A): the
// discriminator-training batch X^(d) and the feedback batch X^(g) with
// their intended labels, plus the swap command for this iteration
// (empty SwapTo = no swap) and the round the command belongs to. Round
// tags the whole swap exchange: the worker stamps it onto its outgoing
// msgSwap, and its rendezvous only accepts swap traffic carrying the
// same tag (see worker.triage), so a cancellation or late frame from an
// adjacent round can never resolve the wrong rendezvous.
// The topology fields route the W→C feedback through the round's
// aggregation plan. Parent names where this worker sends its round
// contribution: empty = no plan, the flat star, answer the server with
// a bare msgFeedback (the frame the wire-byte pins count; the server
// ingests it as a single-contributor entry); anything else = fold it
// into an msgAgg frame addressed to Parent. Children lists the workers
// whose msgAgg frames this worker must reduce before forwarding (so a
// non-empty Children makes the worker an aggregator this round), GIdx
// is the generated-batch index the worker's own feedback answers (on
// the star the server fills that in itself), and AggWait bounds in
// milliseconds how long an aggregator waits for its children before
// forwarding a partial reduction (0 = wait until every child reports or
// is skipped — strict fail-stop).
type batchesMsg struct {
	Xd, Xg   *tensor.Tensor
	Ld, Lg   []int
	SwapTo   string
	Round    int
	Parent   string
	Children []string
	GIdx     int
	AggWait  int
}

// readLabels decodes a label list, appending into buf (pass a
// zero-length slice with capacity to avoid allocation). An empty list
// decodes as nil, preserving the "unconditional" convention.
func readLabels(r *bytes.Reader, buf []int) ([]int, error) {
	n, err := readCount(r, "label count", 4)
	if n == 0 {
		return nil, err
	}
	for i := 0; i < n; i++ {
		l, err := readU32(r, "label")
		if err != nil {
			return nil, err
		}
		buf = append(buf, l)
	}
	return buf, nil
}

// readU32 reads one little-endian u32 field; what names it in the
// error. It reads through the concrete reader, so the scratch bytes stay
// on the stack.
func readU32(r *bytes.Reader, what string) (int, error) {
	var tmp [4]byte
	if n, _ := r.Read(tmp[:]); n < len(tmp) {
		return 0, fmt.Errorf("core: read %s: %w", what, io.ErrUnexpectedEOF)
	}
	return int(binary.LittleEndian.Uint32(tmp[:])), nil
}

// readCount reads a length prefix and bounds it against the remaining
// payload — each of the things it counts takes at least minBytes more —
// before any allocation proportional to it can happen.
func readCount(r *bytes.Reader, what string, minBytes int) (int, error) {
	n, err := readU32(r, what)
	if err == nil && n > r.Len()/minBytes {
		return 0, fmt.Errorf("core: %s %d exceeds remaining payload", what, n)
	}
	return n, err
}

func encodeBatches(m batchesMsg) []byte {
	size := m.Xd.EncodedSize() + m.Xg.EncodedSize() +
		int64(8+4*len(m.Ld)+4*len(m.Lg)+batchesTailSize(&m))
	buf := make([]byte, 0, size)
	buf = m.Xd.AppendBinary(buf)
	buf = appendLabels(buf, m.Ld)
	buf = m.Xg.AppendBinary(buf)
	buf = appendLabels(buf, m.Lg)
	return appendBatchesTail(buf, &m)
}

// batchesTailSize is the byte size of what appendBatchesTail appends.
func batchesTailSize(m *batchesMsg) int {
	size := 4 + len(m.SwapTo) + 4 + 4 + len(m.Parent) + 4 + 8
	for _, c := range m.Children {
		size += 4 + len(c)
	}
	return size
}

// appendBatchesTail appends everything of a batches frame that follows
// the two batch frames — swap command, round tag, parent, children,
// batch index, aggregation wait. The engine's route stage ships
// pre-encoded batch frames by reference and builds only this tail;
// encodeBatches is the same layout from tensors.
func appendBatchesTail(buf []byte, m *batchesMsg) []byte {
	buf = appendString(buf, m.SwapTo)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Round))
	buf = appendString(buf, m.Parent)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Children)))
	for _, c := range m.Children {
		buf = appendString(buf, c)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.GIdx))
	return binary.LittleEndian.AppendUint32(buf, uint32(m.AggWait))
}

func appendLabels(buf []byte, labels []int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(labels)))
	for _, l := range labels {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
	}
	return buf
}

// appendString appends the length-prefixed string framing readString
// decodes.
func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// decodeBatches parses a batches message into m, reusing m's tensors
// and label slices so a worker's steady-state receive loop does not
// allocate. The message's bytes are frames ++ p: route ships the two
// batch frames (X ++ L each) by reference ahead of the worker's own
// tail, while the async engine, TCPNet's receiver and the fuzzers hand
// over one flat p. The one decoder reads whatever segments there are in
// order, stepping to the next only where a batch frame or the tail
// begins; a field that straddles two segments is truncated.
func decodeBatches(p []byte, m *batchesMsg, frames ...[]byte) error {
	r := new(bytes.Reader)
	seg := 0
	next := func() {
		for ; r.Len() == 0 && seg <= len(frames); seg++ {
			if seg < len(frames) {
				r.Reset(frames[seg])
			} else {
				r.Reset(p)
			}
		}
	}
	next()
	if m.Xd == nil {
		m.Xd = new(tensor.Tensor)
	}
	if _, err := m.Xd.ReadFrom(r); err != nil {
		return fmt.Errorf("core: decode X(d): %w", err)
	}
	var err error
	if m.Ld, err = readLabels(r, m.Ld[:0]); err != nil {
		return err
	}
	next()
	if m.Xg == nil {
		m.Xg = new(tensor.Tensor)
	}
	if _, err := m.Xg.ReadFrom(r); err != nil {
		return fmt.Errorf("core: decode X(g): %w", err)
	}
	if m.Lg, err = readLabels(r, m.Lg[:0]); err != nil {
		return err
	}
	next()
	if m.SwapTo, err = readString(r); err != nil {
		return err
	}
	if m.Round, err = readU32(r, "batches round"); err != nil {
		return err
	}
	if m.Parent, err = readString(r); err != nil {
		return err
	}
	nc, err := readCount(r, "child count", 4)
	if err != nil {
		return err
	}
	m.Children = m.Children[:0]
	for i := 0; i < nc; i++ {
		c, err := readString(r)
		if err != nil {
			return err
		}
		m.Children = append(m.Children, c)
	}
	if m.GIdx, err = readU32(r, "batch index"); err != nil {
		return err
	}
	m.AggWait, err = readU32(r, "aggregation wait")
	return err
}

func readString(r *bytes.Reader) (string, error) {
	n, err := readCount(r, "string length", 1)
	if n == 0 {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("core: read string: %w", err)
	}
	return string(b), nil
}

// Feedback framing lives in compress.go: F_n is b·d floats (the W→C
// entry of Table III) under CompressNone, or a reduced encoding under
// the §VII.2 compression extensions.

// SwapPrecision selects the wire element width of discriminator swap
// (and join-clone) payloads — the |θ| entries of Table III's W→W row
// and the join protocol's 2·|θ| cost.
type SwapPrecision int

// Swap payload precisions.
const (
	// SwapFP32 (the default) ships 4-byte elements: a 2× reduction of
	// the W→W row on the float64 build (a no-op under -tags f32, whose
	// native frames are already 4-byte). A swapped discriminator loses
	// at most one float32 rounding per parameter per swap — noise well
	// below the gradient scale of the next local step, the same
	// trade-off CompressFP32 already makes for feedbacks every
	// iteration.
	SwapFP32 SwapPrecision = iota
	// SwapNative ships the compiled element width: swaps move
	// parameters bit-exactly (the serial-equivalence and
	// conservation-style tests that demand bitwise transfers use
	// this).
	SwapNative
)

// String implements fmt.Stringer.
func (p SwapPrecision) String() string {
	switch p {
	case SwapFP32:
		return "fp32"
	case SwapNative:
		return "native"
	default:
		return fmt.Sprintf("SwapPrecision(%d)", int(p))
	}
}

// wireDType maps the precision to the tensor wire dtype byte.
func (p SwapPrecision) wireDType() byte {
	if p == SwapNative {
		return tensor.NativeDType
	}
	return tensor.DTypeF32
}

// Swap framing: every msgSwap payload leads with a 4-byte little-endian
// round tag — the iteration whose SWAP command produced it — followed
// by the discriminator parameter framing, or by nothing for a
// cancellation ("no swap this round, keep your own D"). The tag is what
// lets a rendezvous reject traffic from adjacent rounds: on transports
// where W→W frames can trail the server's sends (TCP uses one
// connection per pair), an untagged cancellation could resolve the
// receiver's PREVIOUS rendezvous while the real swap was still in
// flight.

// encodeSwap frames a discriminator's parameters for round's swap at
// the given wire precision, into a buffer from pool.
func encodeSwap(pool framePool, round int, d *gan.Discriminator, p SwapPrecision) []byte {
	buf := pool.get(int(swapPayloadSize(d, p)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(round))
	return nn.AppendParams(buf, d.Params(), p.wireDType())
}

// encodeSwapCancel frames the server's rendezvous release for round: a
// bare round tag, no parameters.
func encodeSwapCancel(round int) []byte {
	return binary.LittleEndian.AppendUint32(make([]byte, 0, 4), uint32(round))
}

// encodeSwapForward wraps already-encoded parameter bytes (a clone
// reply) in round's swap framing — the join protocol's server→joiner
// hand-off.
func encodeSwapForward(round int, params []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(params)), uint32(round))
	return append(buf, params...)
}

// decodeSwap splits a msgSwap payload into its round tag and the
// parameter bytes (empty for a cancellation).
func decodeSwap(p []byte) (round int, params []byte, err error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("core: swap payload %d bytes, want ≥ 4 (round tag)", len(p))
	}
	return int(binary.LittleEndian.Uint32(p[:4])), p[4:], nil
}

// swapPayloadSize returns the byte size of one full swap message under
// the given precision (round tag + parameter framing) — what the
// traffic tests and the Table III accounting expect per swap.
func swapPayloadSize(d *gan.Discriminator, p SwapPrecision) int64 {
	return 4 + nn.EncodedParamSize(d.Params(), p.wireDType())
}

// encodeDiscParams frames a discriminator's parameters for a swap at
// the given wire precision. Size is the |θ| payload of Table III's
// W→W row.
func encodeDiscParams(d *gan.Discriminator, p SwapPrecision) []byte {
	ps, dt := d.Params(), p.wireDType()
	return nn.AppendParams(make([]byte, 0, nn.EncodedParamSize(ps, dt)), ps, dt)
}

// decodeDiscParamsInto loads a swap payload of either wire width (the
// tensor framing self-describes its dtype, so frames from the f32 and
// f64 builds decode interchangeably). It is all or nothing: a payload
// that is truncated, mis-shaped or followed by stray bytes is an error
// and leaves d exactly as it was, which is what every caller in
// worker.go relies on when it keeps its own discriminator after a
// failed swap.
func decodeDiscParamsInto(d *gan.Discriminator, p []byte) error {
	if err := nn.DecodeParams(p, d.Params()); err != nil {
		return fmt.Errorf("core: decode swap params: %w", err)
	}
	return nil
}

package core

// framePool recycles wire frame buffers between the nodes of one run.
// A channel, not a sync.Pool: a slice goes in and out without boxing,
// and the hand-off orders the last read of a buffer by the goroutine
// that puts it before the first write by the one that gets it. The nil
// pool allocates on every get and drops every put.
type framePool chan []byte

// newFramePool returns a pool that keeps at most n idle buffers.
func newFramePool(n int) framePool { return make(chan []byte, n) }

// get returns an empty buffer with room for size bytes: a pooled one if
// the next one is large enough, else a fresh exact-size allocation (an
// undersized pooled buffer is dropped).
func (p framePool) get(size int) []byte {
	var buf []byte
	select {
	case buf = <-p:
	default:
	}
	if cap(buf) < size {
		return make([]byte, 0, size)
	}
	return buf[:0]
}

// put offers buf back to the pool without blocking: a full or nil pool
// leaves it to the collector. The caller must hold the only reference to
// buf and be done reading it.
func (p framePool) put(buf []byte) {
	select {
	case p <- buf:
	default:
	}
}

// framePools are the frame pools of one run. Train creates them and its
// server and workers share them, so no buffer outlives the run and two
// runs never trade frames of different models.
//
//   - feedback: a worker encodes its star feedback frame into a buffer
//     from it; the server puts the frame back once it has decoded it.
//   - swap: a worker encodes its SWAP frame into a buffer from it; the
//     receiving worker puts the frame back once it has decoded its
//     parameters (worker.triage).
//
// Each pool keeps two rounds' frames per worker: a round draws one per
// worker and returns as many, and a pipelined round can start drawing
// before the last of the previous round's frames are back.
type framePools struct {
	feedback, swap framePool
}

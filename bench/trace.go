package main

import (
	"math/rand"
	"sync"
	"time"

	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// Tracing is done from the benchmark's own files, around the calls into
// each layer: a simnet.Net decorator sees every message the engine
// sends, nn.Layer decorators injected through Arch.BuildG/BuildD see
// every layer call, and an opt.Optimizer decorator sees every Adam
// step. Spans stay in memory and are written out when the run ends.

// span is one timed interval. Spans of one op share Op; Parent is the
// index of the span that caused this one, −1 for an op's root span.
// Times are nanoseconds since the trace's epoch.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Message spans only.
	Kind  string `json:"kind,omitempty"`
	From  string `json:"from,omitempty"`
	To    string `json:"to,omitempty"`
	Bytes int    `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// traceNet records a span per message sent through the wrapped net. The
// engine sends from many goroutines, so the record is mutex-guarded;
// the cost shows up as trace.overhead_share.
type traceNet struct {
	simnet.Net
	epoch time.Time

	mu      sync.Mutex
	pending []span // messages since the last endOp
	all     []span
}

func newTraceNet(inner simnet.Net) *traceNet {
	return &traceNet{Net: inner, epoch: time.Now()}
}

func (t *traceNet) Send(msg simnet.Message) error {
	t0 := time.Now()
	err := t.Net.Send(msg)
	t1 := time.Now()
	if err == nil {
		t.mu.Lock()
		t.pending = append(t.pending, span{
			Name: "simnet.send/" + msg.Type, StartNS: int64(t0.Sub(t.epoch)), EndNS: int64(t1.Sub(t.epoch)),
			Kind: kindName(msg.Kind), From: msg.From, To: msg.To, Bytes: len(msg.Payload),
		})
		t.mu.Unlock()
	}
	return err
}

// discard drops the messages recorded so far (the warm-up's).
func (t *traceNet) discard() {
	t.mu.Lock()
	t.pending = t.pending[:0]
	t.mu.Unlock()
}

// maxTraceOps caps the ops whose message spans are kept: the tiny
// workload sends some 20 000 messages a second, and a trace file of a
// few thousand ops shows everything a longer one would.
const maxTraceOps = 2000

// endOp closes op id: a root span over [start, end] adopts every
// message sent since the previous endOp.
func (t *traceNet) endOp(id int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := len(t.all)
	t.all = append(t.all, span{Name: "core.op", Op: id, Parent: -1,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch))})
	if id <= maxTraceOps {
		for _, m := range t.pending {
			m.Op, m.Parent = id, root
			t.all = append(t.all, m)
		}
	}
	t.pending = t.pending[:0]
}

func (t *traceNet) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.all
}

func kindName(k simnet.Kind) string {
	switch k {
	case simnet.CtoW:
		return "c2w"
	case simnet.WtoC:
		return "w2c"
	default:
		return "w2w"
	}
}

// tracer records nested spans on one goroutine (the serial replay),
// op by op, and reads the probe between ops like the training child.
type tracer struct {
	epoch     time.Time
	all       []span
	stack     []int
	op        int // ops recorded so far: the id of the op in progress
	probes    []reading
	lastProbe time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reset forgets everything recorded so far (the warm-up) and takes the
// first probe reading.
func (t *tracer) reset() {
	t.all, t.op = t.all[:0], 0
	t.probes = append(t.probes[:0], reading{At: 0, MS: readProbe(1)})
	t.lastProbe = time.Now()
}

// endOp closes an op's root span and reads the probe when due.
func (t *tracer) endOp(root int) {
	t.end(root)
	t.op++
	if time.Since(t.lastProbe) >= probeEvery {
		t.probes = append(t.probes, reading{At: t.op, MS: readProbe(1)})
		t.lastProbe = time.Now()
	}
}

// scale returns each recorded op's probe normalisation factor.
func (t *tracer) scale() []float64 {
	ones := make([]float64, t.op)
	for i := range ones {
		ones[i] = 1
	}
	scale, err := normalise(ones, t.probes)
	if err != nil {
		panic(err) // reset and close bracket every op the tracer records
	}
	return scale
}

// close takes the reading that brackets the last ops.
func (t *tracer) close() {
	if t.probes[len(t.probes)-1].At != t.op {
		t.probes = append(t.probes, reading{At: t.op, MS: readProbe(1)})
	}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.all)
	t.all = append(t.all, span{Name: name, Op: t.op, Parent: parent})
	t.stack = append(t.stack, i)
	t.all[i].StartNS = int64(time.Since(t.epoch))
	return i
}

func (t *tracer) end(i int) {
	t.all[i].EndNS = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per op, the self time in ms of every span name: a
// span's duration minus its children's, times the op's scale (its
// probe normalisation). Within one op the self times sum to the root
// span's scaled duration.
func selfTimes(spans []span, scale []float64) map[int]map[string]float64 {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.ms()
		}
	}
	out := make(map[int]map[string]float64)
	for i, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = make(map[string]float64)
			out[s.Op] = m
		}
		m[s.Name] += (s.ms() - child[i]) * scale[s.Op]
	}
	return out
}

// layerTable averages self times over the ops, which are numbered from
// 0 and scaled by scale. The rows sum to total, the mean scaled
// duration of an op.
func layerTable(spans []span, scale []float64) (rows map[string]float64, total float64) {
	per := selfTimes(spans, scale)
	rows = make(map[string]float64)
	for _, m := range per {
		for name, v := range m {
			rows[name] += v / float64(len(per))
			total += v / float64(len(per))
		}
	}
	return rows, total
}

var _ nn.Layer = (*timedLayer)(nil)

// timedLayer is an nn.Layer that records a span around every Forward
// and Backward of the layer it wraps.
type timedLayer struct {
	nn.Layer
	fwd, bwd string
	tr       *tracer
}

func (l *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	i := l.tr.begin(l.fwd)
	y := l.Layer.Forward(x, train)
	l.tr.end(i)
	return y
}

func (l *timedLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	i := l.tr.begin(l.bwd)
	g := l.Layer.Backward(grad)
	l.tr.end(i)
	return g
}

// Clone keeps the decoration: the engine clones the discriminator once
// per worker, and an undecorated clone would silently drop out of the
// table.
func (l *timedLayer) Clone() nn.Layer {
	return &timedLayer{Layer: l.Layer.Clone(), fwd: l.fwd, bwd: l.bwd, tr: l.tr}
}

// layerKind names the per-layer metric family a layer reports under.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Dense:
		return "dense"
	case *nn.Conv2D:
		return "conv"
	case *nn.ConvTranspose2D:
		return "convT"
	case *nn.LeakyReLU, *nn.Tanh, *nn.Sigmoid:
		return "act"
	case *nn.MinibatchDiscrimination:
		return "mbd"
	default:
		return ""
	}
}

// decorate wraps every layer of s that has a metric family; reshapes
// and flattens are views and stay in their caller's self time.
func decorate(s *nn.Sequential, tr *tracer) {
	for i, l := range s.Layers {
		k := layerKind(l)
		if k == "" {
			continue
		}
		s.Layers[i] = &timedLayer{Layer: l, fwd: "nn." + k + "_fwd", bwd: "nn." + k + "_bwd", tr: tr}
	}
}

// instrument returns arch with every layer it builds decorated. The
// two discriminator heads NewGAN adds outside BuildD are decorated by
// the replay once the couple is built.
func instrument(a gan.Arch, tr *tracer) gan.Arch {
	buildG, buildD := a.BuildG, a.BuildD
	a.BuildG = func(rng *rand.Rand) *nn.Sequential {
		s := buildG(rng)
		decorate(s, tr)
		return s
	}
	a.BuildD = func(rng *rand.Rand) (*nn.Sequential, int) {
		s, feat := buildD(rng)
		decorate(s, tr)
		return s, feat
	}
	return a
}

// timedOpt records a span around every optimiser step.
type timedOpt struct {
	opt.Optimizer
	tr *tracer
}

func (o timedOpt) Step(params []*nn.Param) {
	i := o.tr.begin("opt.adam_step")
	o.Optimizer.Step(params)
	o.tr.end(i)
}

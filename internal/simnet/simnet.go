// Package simnet provides the cluster substrate the distributed GAN
// algorithms run on: named nodes exchanging messages over a pluggable
// transport, with per-link traffic accounting. The paper evaluates
// communication complexity by link type (server→worker, worker→server,
// worker→worker; Tables III/IV), so every send is tagged with its link
// kind and the byte counters reproduce those tables directly.
//
// Two transports are provided: ChannelNet (in-process, one goroutine per
// node — the emulation mode the paper itself uses) and TCPNet (real
// sockets via the stdlib net package, for running workers as separate
// processes or across machines).
package simnet

import (
	"errors"
	"fmt"
	"sync"

	"mdgan/internal/parallel"
)

// Kind labels a link for the traffic accounting of Tables III/IV.
type Kind int

const (
	// CtoW is server → worker traffic (generated batches in MD-GAN,
	// model parameters in FL-GAN).
	CtoW Kind = iota
	// WtoC is worker → server traffic (error feedback in MD-GAN,
	// model parameters in FL-GAN).
	WtoC
	// WtoW is worker → worker traffic (discriminator swaps, MD-GAN
	// only).
	WtoW
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CtoW:
		return "C→W"
	case WtoC:
		return "W→C"
	case WtoW:
		return "W→W"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is one unit of communication. Its bytes are Frames[0] ++ … ++
// Frames[n-1] ++ Payload: a sender that ships the same large frame to
// many nodes passes it by reference in Frames instead of copying it into
// every Payload.
//
// The frame contract: Frames are shared and read-only. Neither a
// transport nor a receiver writes to them, and a receiver is done
// reading them before it answers the message, so a sender may reuse a
// frame once every receiver has answered. That reading of an answer
// holds only where each pair's messages arrive once and in order, as on
// ChannelNet; TCPNet copies the frames onto the socket before Send
// returns. A transport that may hold, reorder or repeat deliveries
// (ChaosNet) breaks it for every message, so it delivers each message
// with frames as a private flattened copy. Payload is the message's
// own: the receiver may keep it, and a receiver done with it may
// recycle it.
type Message struct {
	From, To string
	Type     string // application-level tag ("batches", "feedback", "swap", "params", ...)
	Kind     Kind
	Frames   [][]byte
	Payload  []byte
}

// Len returns the message's size in bytes: its frames and its payload.
func (m *Message) Len() int {
	n := len(m.Payload)
	for _, f := range m.Frames {
		n += len(f)
	}
	return n
}

// private returns m with its frames and payload copied into one fresh
// Payload.
func (m Message) private() Message {
	p := make([]byte, 0, m.Len())
	for _, f := range m.Frames {
		p = append(p, f...)
	}
	m.Payload, m.Frames = append(p, m.Payload...), nil
	return m
}

// ErrNodeDown is returned when sending to a crashed or unknown node.
var ErrNodeDown = errors.New("simnet: node down")

// Traffic is a snapshot of accumulated communication counters.
type Traffic struct {
	Bytes         map[Kind]int64
	Msgs          map[Kind]int64
	IngressByNode map[string]int64
	EgressByNode  map[string]int64
}

// Total returns total bytes across all link kinds.
func (t Traffic) Total() int64 {
	var s int64
	for _, v := range t.Bytes {
		s += v
	}
	return s
}

// Net is a message transport between named nodes with traffic
// accounting and fail-stop crash injection. A transport honours the
// frame contract on Message and counts a message's Len — frames and
// payload — so a message with frames and its flattened twin move the
// counters alike.
type Net interface {
	// Register creates the node's inbox. Must be called before the
	// node sends or receives.
	Register(node string) error
	// Send delivers a message; it blocks only if the destination inbox
	// is full. Sending to a crashed node returns ErrNodeDown.
	Send(msg Message) error
	// Inbox returns the node's receive channel.
	Inbox(node string) <-chan Message
	// Crash marks a node as failed (fail-stop): subsequent sends to it
	// fail and its inbox is closed after draining.
	Crash(node string)
	// Snapshot returns a copy of the traffic counters.
	Snapshot() Traffic
	// Close releases transport resources.
	Close() error
}

// BroadcastEach delivers every message, fanning the sends out through
// internal/parallel: the per-destination work of a send (envelope
// framing and socket writes on TCPNet, channel hand-off on ChannelNet)
// overlaps across destinations, which is where a server's per-worker
// distribution loop spends its time on real transports. All sends are
// attempted even when some fail (a fail-stop crash of one worker must
// not starve the others), and the result reports each destination's
// outcome: entry i is nil when msgs[i] was delivered, ErrNodeDown
// (wrapped) when its destination is crashed or unreachable, or another
// error for transport-level failures. Callers that tolerate stragglers
// — the round engines demote an ErrNodeDown destination via their
// membership layer and continue with the survivors — inspect the slice.
func BroadcastEach(n Net, msgs []Message) []error {
	if len(msgs) == 0 {
		return nil
	}
	errs := make([]error, len(msgs))
	parallel.ForceFor(len(msgs), func(s, e int) {
		for i := s; i < e; i++ {
			errs[i] = n.Send(msgs[i])
		}
	})
	return errs
}

// accounting is shared by the transports.
type accounting struct {
	mu      sync.Mutex
	bytes   map[Kind]int64
	msgs    map[Kind]int64
	ingress map[string]int64
	egress  map[string]int64
}

func newAccounting() *accounting {
	return &accounting{
		bytes:   make(map[Kind]int64),
		msgs:    make(map[Kind]int64),
		ingress: make(map[string]int64),
		egress:  make(map[string]int64),
	}
}

// record counts msg once (sign 1), or takes a count back (sign -1).
func (a *accounting) record(msg *Message, sign int64) {
	n := sign * int64(msg.Len())
	a.mu.Lock()
	a.bytes[msg.Kind] += n
	a.msgs[msg.Kind] += sign
	a.ingress[msg.To] += n
	a.egress[msg.From] += n
	a.mu.Unlock()
}

func (a *accounting) snapshot() Traffic {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := Traffic{
		Bytes:         make(map[Kind]int64, len(a.bytes)),
		Msgs:          make(map[Kind]int64, len(a.msgs)),
		IngressByNode: make(map[string]int64, len(a.ingress)),
		EgressByNode:  make(map[string]int64, len(a.egress)),
	}
	for k, v := range a.bytes {
		t.Bytes[k] = v
	}
	for k, v := range a.msgs {
		t.Msgs[k] = v
	}
	for k, v := range a.ingress {
		t.IngressByNode[k] = v
	}
	for k, v := range a.egress {
		t.EgressByNode[k] = v
	}
	return t
}

// ChannelNet is the in-process transport: one buffered channel per node.
type ChannelNet struct {
	mu      sync.Mutex
	inboxes map[string]*inbox
	down    map[string]bool
	acct    *accounting
	buf     int
}

// inbox is one node's receive channel plus what a fail-stop needs to
// close it while senders may be parked on it: a send cannot hold the
// net lock (a full inbox would block Register/Crash/Snapshot), so shut
// first closes done, which every parked sender selects on, and closes
// ch only once no sender is inside.
type inbox struct {
	ch      chan Message
	done    chan struct{}
	senders sync.WaitGroup // sends past the liveness check
}

// shut closes the inbox. The caller has marked the node down under the
// net lock, so no new sender can enter.
func (in *inbox) shut() {
	close(in.done)
	in.senders.Wait()
	close(in.ch)
}

// NewChannelNet creates an in-process network. buf is the inbox buffer
// depth per node (0 selects a generous default so synchronous rounds
// never deadlock).
func NewChannelNet(buf int) *ChannelNet {
	if buf <= 0 {
		buf = 1024
	}
	return &ChannelNet{
		inboxes: make(map[string]*inbox),
		down:    make(map[string]bool),
		acct:    newAccounting(),
		buf:     buf,
	}
}

// Register implements Net.
func (n *ChannelNet) Register(node string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.inboxes[node]; ok {
		return fmt.Errorf("simnet: node %q already registered", node)
	}
	n.inboxes[node] = &inbox{ch: make(chan Message, n.buf), done: make(chan struct{})}
	return nil
}

// Send implements Net.
func (n *ChannelNet) Send(msg Message) error {
	n.mu.Lock()
	in, ok := n.inboxes[msg.To]
	ok = ok && !n.down[msg.To]
	if ok {
		in.senders.Add(1)
	}
	n.mu.Unlock()
	if ok {
		// Counted before the receiver can see it, so a node that has
		// received a message finds it in Snapshot; taken back if the
		// inbox shuts first.
		n.acct.record(&msg, 1)
		select {
		case in.ch <- msg:
		case <-in.done:
			ok = false
			n.acct.record(&msg, -1)
		}
		in.senders.Done()
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeDown, msg.To)
	}
	return nil
}

// Inbox implements Net.
func (n *ChannelNet) Inbox(node string) <-chan Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	if in := n.inboxes[node]; in != nil {
		return in.ch
	}
	return nil
}

// Crash implements Net.
func (n *ChannelNet) Crash(node string) {
	n.mu.Lock()
	in := n.inboxes[node]
	if n.down[node] {
		in = nil
	}
	n.down[node] = true
	n.mu.Unlock()
	if in != nil {
		in.shut()
	}
}

// Down reports whether the node has crashed.
func (n *ChannelNet) Down(node string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[node]
}

// Snapshot implements Net.
func (n *ChannelNet) Snapshot() Traffic { return n.acct.snapshot() }

// Close implements Net.
func (n *ChannelNet) Close() error {
	n.mu.Lock()
	var live []*inbox
	for name, in := range n.inboxes {
		if !n.down[name] {
			n.down[name] = true
			live = append(live, in)
		}
	}
	n.mu.Unlock()
	for _, in := range live {
		in.shut()
	}
	return nil
}

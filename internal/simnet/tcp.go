package simnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Default socket deadlines and retry backoff. A SYN-blackholed peer (a
// firewalled or partitioned host) otherwise blocks net.Dial for the
// kernel's SYN-retry budget (minutes), and a stalled peer whose receive
// window is full blocks a write forever — either one used to hang the
// server's dispatch loop for the rest of the run.
const (
	// DefaultDialTimeout bounds connection establishment.
	DefaultDialTimeout = 2 * time.Second
	// DefaultWriteTimeout bounds each socket write, which carries at
	// most tcpChunkSize bytes of payload (armed fresh before every
	// write, so a multi-hundred-MB frame to a healthy-but-slow peer
	// streams write by write instead of having to land whole within one
	// deadline, while a genuinely stalled peer still fails at the first
	// unbuffered write).
	DefaultWriteTimeout = 5 * time.Second
	// tcpSendAttempts is the total number of send attempts (the first
	// try plus fresh-dial retries).
	tcpSendAttempts = 3
	// tcpRetryBase is the first retry's backoff; it doubles per attempt
	// with up to 50% random jitter added (decorrelating the retry
	// storms of many senders hitting one recovering peer).
	tcpRetryBase = 20 * time.Millisecond
)

// Framing bounds.
const (
	// tcpChunkSize is the payload budget of one socket write. 64 KiB
	// keeps the deadline granularity small while amortising the write
	// calls to noise.
	tcpChunkSize = 64 << 10
	// tcpMaxFrame bounds a single message's payload: anything claiming
	// more is hostile or corrupt, and the receiver drops the connection
	// before allocating for the claim.
	tcpMaxFrame = 256 << 20
	// tcpMaxNameLen bounds the node-name and type strings in a frame
	// envelope.
	tcpMaxNameLen = 4096
)

// TCPNet is a Net implementation over real loopback/LAN sockets using
// the stdlib net package: every registered node owns a TCP listener and
// senders keep one persistent connection per (from, to) pair. Traffic
// accounting counts application payload bytes (identical to
// ChannelNet), so the communication tables are transport-independent.
// A message's frames go on the wire ahead of its payload, and the
// receiver reads them back as one flat Payload.
//
// A frame is the envelope [u32 len ++ from, u32 len ++ to, u32 len ++
// type, u8 kind, u32 payload length] followed by the payload, and a
// connection carries one frame at a time. The sender never builds a
// full copy of a frame: the first write carries the envelope plus up to
// 64 KiB of payload, and the rest goes straight from the caller's
// buffer. Every write gets its own deadline, and backpressure
// propagates per connection through the TCP window — a slow worker
// throttles its own sender instead of forcing frames to queue in
// memory. The receiver bounds every envelope length before any
// proportional allocation and holds at most one partial frame per
// connection.
//
// Sends are hardened against transient peer stalls: dials are bounded
// by DialTimeout, every write is bounded by WriteTimeout, and a failed
// write is retried over a fresh connection with exponential backoff and
// jitter before the peer is reported down. Retries() counts those
// recovery attempts for the fault accounting.
type TCPNet struct {
	mu        sync.Mutex
	addrs     map[string]string
	listeners map[string]net.Listener
	inboxes   map[string]chan Message
	incoming  map[string][]net.Conn // accepted conns per node, closed on Crash
	conns     map[string]*tcpConn   // sender side, key: from+"→"+to
	down      map[string]bool
	acct      *accounting
	wg        sync.WaitGroup
	retries   atomic.Int64

	// DialTimeout and WriteTimeout bound connection establishment and
	// each socket write. They default to DefaultDialTimeout /
	// DefaultWriteTimeout and may be lowered before the first Send
	// (tests use short deadlines to exercise the expiry paths).
	DialTimeout  time.Duration
	WriteTimeout time.Duration
}

// tcpConn is the sender half of one (from, to) connection. The mutex
// is held for a whole frame, so concurrent Sends on one pair queue
// behind each other. MD-GAN's round engines never have two frames in
// flight on one pair (internal/core's TestAtMostOneSendInFlightPerPair),
// so in their training runs the lock is never contended.
type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// NewTCPNet creates a TCP-backed network on loopback.
func NewTCPNet() *TCPNet {
	return &TCPNet{
		addrs:        make(map[string]string),
		listeners:    make(map[string]net.Listener),
		inboxes:      make(map[string]chan Message),
		incoming:     make(map[string][]net.Conn),
		conns:        make(map[string]*tcpConn),
		down:         make(map[string]bool),
		acct:         newAccounting(),
		DialTimeout:  DefaultDialTimeout,
		WriteTimeout: DefaultWriteTimeout,
	}
}

// Retries returns the number of fresh-dial send retries performed so
// far — the transport-level entry of the fault accounting.
func (n *TCPNet) Retries() int64 { return n.retries.Load() }

// Register implements Net: the node gets a listener on an ephemeral
// loopback port and an accept loop feeding its inbox.
func (n *TCPNet) Register(node string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.inboxes[node]; ok {
		return fmt.Errorf("simnet: node %q already registered", node)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("simnet: listen for %s: %w", node, err)
	}
	inbox := make(chan Message, 1024)
	n.listeners[node] = l
	n.addrs[node] = l.Addr().String()
	n.inboxes[node] = inbox
	n.wg.Add(1)
	go n.acceptLoop(node, l, inbox)
	return nil
}

// acceptLoop owns the node's inbox: it is the only goroutine that closes
// it, and only after every connection reader has exited.
func (n *TCPNet) acceptLoop(node string, l net.Listener, inbox chan Message) {
	defer n.wg.Done()
	var connWG sync.WaitGroup
	for {
		c, err := l.Accept()
		if err != nil {
			// Listener closed (Crash or Close): stop readers, then
			// close the inbox so receivers unblock.
			n.mu.Lock()
			for _, ic := range n.incoming[node] {
				ic.Close()
			}
			n.mu.Unlock()
			connWG.Wait()
			close(inbox)
			return
		}
		n.mu.Lock()
		n.incoming[node] = append(n.incoming[node], c)
		n.mu.Unlock()
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			defer c.Close()
			readFrames(c, inbox)
		}()
	}
}

// readFrames is the per-connection receive loop: it reads one frame
// after another and delivers each once its payload has fully arrived.
// Any framing violation — a name past tcpMaxNameLen, a payload claim
// past tcpMaxFrame, a connection closed mid-frame — drops the connection
// (the sender's next write fails and takes the fresh-dial retry path),
// and the partial frame dies with it.
func readFrames(c net.Conn, inbox chan Message) {
	r := bufio.NewReader(c)
	for {
		msg, ok := readFrame(r)
		if !ok {
			return
		}
		inbox <- msg
	}
}

// readFrame reads one envelope and its payload, checking each length
// against its bound before allocating for it.
func readFrame(r *bufio.Reader) (msg Message, ok bool) {
	var word [5]byte
	var fields [3]string
	for i := range fields {
		if _, err := io.ReadFull(r, word[:4]); err != nil {
			return msg, false
		}
		l := int(binary.LittleEndian.Uint32(word[:4]))
		if l > tcpMaxNameLen {
			return msg, false
		}
		name := make([]byte, l)
		if _, err := io.ReadFull(r, name); err != nil {
			return msg, false
		}
		fields[i] = string(name)
	}
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return msg, false
	}
	size := int(binary.LittleEndian.Uint32(word[1:]))
	if size > tcpMaxFrame {
		return msg, false
	}
	msg = Message{From: fields[0], To: fields[1], Type: fields[2], Kind: Kind(word[0]), Payload: make([]byte, size)}
	if _, err := io.ReadFull(r, msg.Payload); err != nil {
		return msg, false
	}
	return msg, true
}

// writeMessage sends one frame under the connection lock. The first
// write is the envelope plus up to tcpChunkSize bytes of the message, in
// a buffer sized to exactly that; the rest is written straight from the
// message's frames and payload, in order, in tcpChunkSize pieces. Each
// write is armed with a fresh deadline: a stalled peer (full receive
// window) fails the write with a timeout instead of hanging the server's
// dispatch loop forever, and expiry falls through to the fresh-dial
// retry path like any other write error.
func (gc *tcpConn) writeMessage(msg *Message, timeout time.Duration) error {
	size := msg.Len()
	first := make([]byte, 0, 3*4+1+4+len(msg.From)+len(msg.To)+len(msg.Type)+min(size, tcpChunkSize))
	for _, s := range []string{msg.From, msg.To, msg.Type} {
		first = binary.LittleEndian.AppendUint32(first, uint32(len(s)))
		first = append(first, s...)
	}
	first = append(first, byte(msg.Kind))
	first = binary.LittleEndian.AppendUint32(first, uint32(size))
	rest := append(msg.Frames[:len(msg.Frames):len(msg.Frames)], msg.Payload)
	for len(first) < cap(first) {
		n := min(len(rest[0]), cap(first)-len(first))
		first = append(first, rest[0][:n]...)
		if rest[0] = rest[0][n:]; len(rest[0]) == 0 {
			rest = rest[1:]
		}
	}
	gc.mu.Lock()
	defer gc.mu.Unlock()
	write := func(b []byte) error {
		_ = gc.conn.SetWriteDeadline(time.Now().Add(timeout))
		_, err := gc.conn.Write(b)
		return err
	}
	if err := write(first); err != nil {
		return err
	}
	for _, seg := range rest {
		for len(seg) > 0 {
			n := min(len(seg), tcpChunkSize)
			if err := write(seg[:n]); err != nil {
				return err
			}
			seg = seg[n:]
		}
	}
	return nil
}

// retryBackoff returns the sleep before retry attempt (1-based):
// exponential from tcpRetryBase with up to 50% random jitter.
func retryBackoff(attempt int) time.Duration {
	d := tcpRetryBase << (attempt - 1)
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// Send implements Net. A dial or write failure (including a deadline
// expiry on a stalled peer) gets fresh-dial retries with exponential
// backoff before the destination is reported down: an idle connection
// torn down by the peer's OS (or a NAT) must not read as a worker death
// — the round engines suspect/demote ErrNodeDown destinations, so a
// stale socket would otherwise silently drop a healthy worker and its
// shard from training. A write that fails mid-frame leaves a torn
// frame on the wire, so the connection is always evicted and the whole
// message resent over a fresh dial (the receiver discards the partial
// frame with the dropped connection).
func (n *TCPNet) Send(msg Message) error {
	n.mu.Lock()
	addr, ok := n.addrs[msg.To]
	dead := n.down[msg.To]
	key := msg.From + "→" + msg.To
	n.mu.Unlock()
	if !ok || dead {
		return fmt.Errorf("%w: %s", ErrNodeDown, msg.To)
	}
	if msg.Len() > tcpMaxFrame {
		return fmt.Errorf("simnet: payload %d exceeds frame bound %d", msg.Len(), tcpMaxFrame)
	}
	var lastErr error
	for attempt := 0; attempt < tcpSendAttempts; attempt++ {
		if attempt > 0 {
			n.retries.Add(1)
			time.Sleep(retryBackoff(attempt))
		}
		n.mu.Lock()
		gc := n.conns[key]
		n.mu.Unlock()
		if gc == nil {
			conn, err := net.DialTimeout("tcp", addr, n.DialTimeout)
			if err != nil {
				// Keep retrying: a refused or timed-out dial may be a
				// transient partition or a peer mid-restart.
				lastErr = err
				continue
			}
			gc = &tcpConn{conn: conn}
			n.mu.Lock()
			n.conns[key] = gc
			n.mu.Unlock()
		}
		err := gc.writeMessage(&msg, n.WriteTimeout)
		if err == nil {
			n.acct.record(&msg, 1)
			return nil
		}
		lastErr = err
		// Evict the broken connection; the next attempt dials fresh.
		n.mu.Lock()
		if n.conns[key] == gc {
			delete(n.conns, key)
		}
		n.mu.Unlock()
		gc.conn.Close()
	}
	// Every attempt failed: the peer is unreachable right now — report
	// the fail-stop mapping and let the membership lifecycle decide
	// whether it is transient (suspect) or permanent (demote).
	return fmt.Errorf("%w: send %s→%s: %v", ErrNodeDown, msg.From, msg.To, lastErr)
}

// Inbox implements Net.
func (n *TCPNet) Inbox(node string) <-chan Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inboxes[node]
}

// Crash implements Net (fail-stop): marks the node down, closes its
// listener and all of its established connections; the accept loop then
// closes the inbox.
func (n *TCPNet) Crash(node string) {
	n.mu.Lock()
	if n.down[node] {
		n.mu.Unlock()
		return
	}
	n.down[node] = true
	l := n.listeners[node]
	n.mu.Unlock()
	if l != nil {
		l.Close()
	}
}

// Snapshot implements Net.
func (n *TCPNet) Snapshot() Traffic { return n.acct.snapshot() }

// Close implements Net: crashes every node and waits for all accept
// loops to finish.
func (n *TCPNet) Close() error {
	n.mu.Lock()
	nodes := make([]string, 0, len(n.listeners))
	for name := range n.listeners {
		nodes = append(nodes, name)
	}
	senders := make([]*tcpConn, 0, len(n.conns))
	for _, c := range n.conns {
		senders = append(senders, c)
	}
	n.mu.Unlock()
	for _, c := range senders {
		c.conn.Close()
	}
	for _, name := range nodes {
		n.Crash(name)
	}
	n.wg.Wait()
	return nil
}

package simnet

// Tests for the frame format: concurrent senders on one connection,
// multi-write payload fidelity, and the receiver's hostile-framing
// bounds.

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// TestTCPConcurrentSendersDeliverIntactFrames drives many goroutines
// through the SAME (from, to) pair with multi-write payloads: they share
// one connection, and every frame must still arrive intact.
func TestTCPConcurrentSendersDeliverIntactFrames(t *testing.T) {
	n := NewTCPNet()
	defer n.Close()
	for _, node := range []string{"a", "b"} {
		if err := n.Register(node); err != nil {
			t.Fatal(err)
		}
	}
	const senders = 8
	// > 3 writes each, so a frame torn by another sender would show.
	payloadLen := 3*tcpChunkSize + 1234
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			p := make([]byte, payloadLen)
			for i := range p {
				p[i] = seed // constant fill: any cross-stream mixup shows
			}
			if err := n.Send(Message{From: "a", To: "b", Type: "batches", Kind: CtoW, Payload: p}); err != nil {
				t.Error(err)
			}
		}(byte(s + 1))
	}
	wg.Wait()
	got := map[byte]bool{}
	for i := 0; i < senders; i++ {
		select {
		case msg := <-n.Inbox("b"):
			if len(msg.Payload) != payloadLen {
				t.Fatalf("frame %d: length %d, want %d", i, len(msg.Payload), payloadLen)
			}
			seed := msg.Payload[0]
			for j, v := range msg.Payload {
				if v != seed {
					t.Fatalf("frame %d: byte %d = %d, want %d (frames crossed)", i, j, v, seed)
				}
			}
			if got[seed] {
				t.Fatalf("frame with fill %d delivered twice", seed)
			}
			got[seed] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d concurrent frames delivered", i, senders)
		}
	}
	if tr := n.Snapshot(); tr.Msgs[CtoW] != senders {
		t.Fatalf("accounting recorded %d msgs, want %d", tr.Msgs[CtoW], senders)
	}
}

// TestTCPOversizedPayloadRejected: the sender refuses a frame past the
// transport bound outright, without dialing.
func TestTCPOversizedPayloadRejected(t *testing.T) {
	n := NewTCPNet()
	defer n.Close()
	for _, node := range []string{"a", "b"} {
		if err := n.Register(node); err != nil {
			t.Fatal(err)
		}
	}
	big := Message{From: "a", To: "b", Kind: CtoW, Payload: make([]byte, tcpMaxFrame+1)}
	err := n.Send(big)
	if err == nil || errors.Is(err, ErrNodeDown) {
		t.Fatalf("oversized payload: err = %v, want a non-fail-stop rejection", err)
	}
	if n.Retries() != 0 {
		t.Fatal("oversized payload must be rejected before any dial/retry")
	}
}

// TestTCPHostileStreamsDropConnection feeds raw hostile frames at a
// registered node's listener: each framing violation must close the
// connection without delivering anything or allocating for the claimed
// sizes.
func TestTCPHostileStreamsDropConnection(t *testing.T) {
	n := NewTCPNet()
	defer n.Close()
	if err := n.Register("b"); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	addr := n.addrs["b"]
	n.mu.Unlock()

	header := func(payloadLen uint32) []byte {
		var b []byte
		for _, s := range []string{"a", "b", "t"} {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
			b = append(b, s...)
		}
		b = append(b, 0)
		return binary.LittleEndian.AppendUint32(b, payloadLen)
	}

	hostile := []struct {
		name  string
		frame []byte
		// closeWrite half-closes the connection after the frame, as a
		// sender that dies mid-frame does.
		closeWrite bool
	}{
		{"payload-length bomb", header(0xFFFFFFF0), false},
		{"name-length bomb", binary.LittleEndian.AppendUint32(nil, tcpMaxNameLen+1), false},
		{"payload 100 bytes short", append(header(500), make([]byte, 400)...), true},
	}
	for _, h := range hostile {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(h.frame); err != nil {
			c.Close()
			t.Fatalf("%s: write: %v", h.name, err)
		}
		if h.closeWrite {
			if err := c.(*net.TCPConn).CloseWrite(); err != nil {
				c.Close()
				t.Fatalf("%s: close write: %v", h.name, err)
			}
		}
		// The receiver must hang up on us; a read that times out means
		// it is still waiting for more of the frame.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		_, err = c.Read(buf)
		c.Close()
		if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: connection stayed open (read: %v)", h.name, err)
		}
	}
	// The receiver closes a connection only after its reader returns, so
	// anything it delivered is in the inbox by now.
	select {
	case msg := <-n.Inbox("b"):
		t.Fatalf("hostile framing delivered a %d-byte %s→%s %q message", len(msg.Payload), msg.From, msg.To, msg.Type)
	default:
	}
}

// TestTCPMultiChunkPayloadIntegrity round-trips a payload that is
// deliberately NOT a multiple of the chunk size, with a varying fill,
// so off-by-one reassembly or chunk reordering corrupts a checked byte.
func TestTCPMultiChunkPayloadIntegrity(t *testing.T) {
	n := NewTCPNet()
	defer n.Close()
	for _, node := range []string{"a", "b"} {
		if err := n.Register(node); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 5*tcpChunkSize+7919)
	for i := range payload {
		payload[i] = byte(i*2654435761 + i>>8)
	}
	if err := n.Send(Message{From: "a", To: "b", Type: "swap", Kind: WtoW, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-n.Inbox("b"):
		if msg.From != "a" || msg.To != "b" || msg.Type != "swap" || msg.Kind != WtoW {
			t.Fatalf("envelope corrupted: %+v", msg)
		}
		if len(msg.Payload) != len(payload) {
			t.Fatalf("length %d, want %d", len(msg.Payload), len(payload))
		}
		for i := range payload {
			if msg.Payload[i] != payload[i] {
				t.Fatalf("payload corrupted at byte %d", i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("multi-chunk frame not delivered")
	}
}

package simnet

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// netFactories lets every behavioural test run against both transports.
var netFactories = map[string]func() Net{
	"channel": func() Net { return NewChannelNet(0) },
	"tcp":     func() Net { return NewTCPNet() },
}

func TestSendRecvAllTransports(t *testing.T) {
	for name, mk := range netFactories {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			if err := n.Register("server"); err != nil {
				t.Fatal(err)
			}
			if err := n.Register("w1"); err != nil {
				t.Fatal(err)
			}
			payload := []byte("hello worker")
			if err := n.Send(Message{From: "server", To: "w1", Type: "batches", Kind: CtoW, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			select {
			case msg := <-n.Inbox("w1"):
				if msg.From != "server" || msg.Type != "batches" || string(msg.Payload) != "hello worker" {
					t.Fatalf("bad message %+v", msg)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("message not delivered")
			}
		})
	}
}

func TestTrafficAccounting(t *testing.T) {
	for name, mk := range netFactories {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			for _, node := range []string{"C", "w1", "w2"} {
				if err := n.Register(node); err != nil {
					t.Fatal(err)
				}
			}
			send := func(from, to string, kind Kind, size int) {
				if err := n.Send(Message{From: from, To: to, Kind: kind, Payload: make([]byte, size)}); err != nil {
					t.Fatal(err)
				}
			}
			send("C", "w1", CtoW, 100)
			send("C", "w2", CtoW, 100)
			send("w1", "C", WtoC, 40)
			send("w1", "w2", WtoW, 7)

			// Drain so TCP readers finish delivery before snapshotting.
			for _, node := range []string{"w1", "w2", "C"} {
				drain(t, n, node, map[string]int{"w1": 1, "w2": 2, "C": 1}[node])
			}
			tr := n.Snapshot()
			if tr.Bytes[CtoW] != 200 || tr.Msgs[CtoW] != 2 {
				t.Fatalf("C→W = %d bytes / %d msgs", tr.Bytes[CtoW], tr.Msgs[CtoW])
			}
			if tr.Bytes[WtoC] != 40 || tr.Msgs[WtoC] != 1 {
				t.Fatalf("W→C = %d bytes", tr.Bytes[WtoC])
			}
			if tr.Bytes[WtoW] != 7 {
				t.Fatalf("W→W = %d bytes", tr.Bytes[WtoW])
			}
			if tr.IngressByNode["w2"] != 107 {
				t.Fatalf("w2 ingress = %d, want 107", tr.IngressByNode["w2"])
			}
			if tr.EgressByNode["C"] != 200 {
				t.Fatalf("C egress = %d, want 200", tr.EgressByNode["C"])
			}
			if tr.Total() != 247 {
				t.Fatalf("total = %d, want 247", tr.Total())
			}
		})
	}
}

func drain(t *testing.T, n Net, node string, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		select {
		case <-n.Inbox(node):
		case <-time.After(5 * time.Second):
			t.Fatalf("node %s: message %d/%d not delivered", node, i+1, count)
		}
	}
}

func TestCrashFailStop(t *testing.T) {
	for name, mk := range netFactories {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			if err := n.Register("C"); err != nil {
				t.Fatal(err)
			}
			if err := n.Register("w1"); err != nil {
				t.Fatal(err)
			}
			n.Crash("w1")
			err := n.Send(Message{From: "C", To: "w1", Kind: CtoW, Payload: []byte("x")})
			if !errors.Is(err, ErrNodeDown) {
				t.Fatalf("send to crashed node: err = %v, want ErrNodeDown", err)
			}
			// The inbox must eventually close so the worker goroutine
			// unblocks and terminates.
			select {
			case _, ok := <-n.Inbox("w1"):
				if ok {
					t.Fatal("unexpected message on crashed inbox")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("crashed inbox did not close")
			}
		})
	}
}

func TestSendToUnknownNode(t *testing.T) {
	n := NewChannelNet(0)
	defer n.Close()
	if err := n.Register("C"); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(Message{From: "C", To: "ghost", Payload: []byte("x")}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
}

func TestDoubleRegisterRejected(t *testing.T) {
	for name, mk := range netFactories {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			if err := n.Register("C"); err != nil {
				t.Fatal(err)
			}
			if err := n.Register("C"); err == nil {
				t.Fatal("double register must fail")
			}
		})
	}
}

func TestConcurrentSendersAccounting(t *testing.T) {
	n := NewChannelNet(0)
	defer n.Close()
	if err := n.Register("C"); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const msgs = 50
	for i := 0; i < workers; i++ {
		if err := n.Register(workerName(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < msgs; j++ {
				if err := n.Send(Message{From: workerName(w), To: "C", Kind: WtoC, Payload: make([]byte, 10)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	tr := n.Snapshot()
	if tr.Bytes[WtoC] != workers*msgs*10 {
		t.Fatalf("W→C bytes = %d, want %d", tr.Bytes[WtoC], workers*msgs*10)
	}
	if tr.Msgs[WtoC] != workers*msgs {
		t.Fatalf("W→C msgs = %d", tr.Msgs[WtoC])
	}
}

// TestChannelSendRacesCrash hammers Send against Crash: senders parked on
// a full inbox (and senders between the liveness check and the channel
// send) while the node fail-stops. Every send must return — delivered,
// or ErrNodeDown — without panicking, the receiver's range over the
// inbox must end, and -race must see no close-vs-send on the channel.
func TestChannelSendRacesCrash(t *testing.T) {
	for round := 0; round < 200; round++ {
		n := NewChannelNet(1) // one slot: most senders park
		if err := n.Register("w"); err != nil {
			t.Fatal(err)
		}
		// The receiver crashes its own node after round%8 messages, so
		// the crash lands at a different depth of the senders' queue
		// each round; then it drains, as a worker's inbox loop does.
		received := make(chan int64, 1)
		go func() {
			var got int64
			if round%8 == 0 {
				n.Crash("w")
			}
			for range n.Inbox("w") {
				if got++; got == int64(round%8) {
					n.Crash("w")
				}
			}
			received <- got
		}()
		var wg sync.WaitGroup
		var delivered atomic.Int64
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					err := n.Send(Message{From: "C", To: "w", Kind: CtoW, Payload: []byte("x")})
					if err == nil {
						delivered.Add(1)
						continue
					}
					if !errors.Is(err, ErrNodeDown) {
						t.Errorf("send racing a crash: err = %v, want ErrNodeDown", err)
					}
					return
				}
			}()
		}
		wg.Wait()
		select {
		case got := <-received:
			if got != delivered.Load() {
				t.Fatalf("round %d: receiver drained %d messages, senders delivered %d", round, got, delivered.Load())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: crashed inbox did not close", round)
		}
		n.Close()
	}
}

func TestTCPLargePayloadRoundTrip(t *testing.T) {
	n := NewTCPNet()
	defer n.Close()
	if err := n.Register("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b"); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := n.Send(Message{From: "a", To: "b", Kind: WtoW, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-n.Inbox("b"):
		if len(msg.Payload) != len(payload) {
			t.Fatalf("payload length %d", len(msg.Payload))
		}
		for i := 0; i < len(payload); i += 4097 {
			if msg.Payload[i] != payload[i] {
				t.Fatalf("payload corrupted at %d", i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("large payload not delivered")
	}
}

func workerName(i int) string { return "w" + string(rune('0'+i)) }

// TestBroadcastEachReportsPerDestination pins the straggler-tolerant
// error semantics the round engines rely on: every send is attempted,
// live destinations receive their messages, and the crashed one's slot
// carries a wrapped ErrNodeDown — no error aborts the others.
func TestBroadcastEachReportsPerDestination(t *testing.T) {
	for name, mk := range netFactories {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			for _, node := range []string{"server", "w0", "w1", "w2"} {
				if err := n.Register(node); err != nil {
					t.Fatal(err)
				}
			}
			n.Crash("w1")
			msgs := []Message{
				{From: "server", To: "w0", Type: "batches", Kind: CtoW, Payload: []byte("a")},
				{From: "server", To: "w1", Type: "batches", Kind: CtoW, Payload: []byte("b")},
				{From: "server", To: "w2", Type: "batches", Kind: CtoW, Payload: []byte("c")},
			}
			errs := BroadcastEach(n, msgs)
			if errs[0] != nil || errs[2] != nil {
				t.Fatalf("live destinations errored: %v / %v", errs[0], errs[2])
			}
			if !errors.Is(errs[1], ErrNodeDown) {
				t.Fatalf("crashed destination error = %v, want ErrNodeDown", errs[1])
			}
			for _, node := range []string{"w0", "w2"} {
				select {
				case <-n.Inbox(node):
				case <-time.After(5 * time.Second):
					t.Fatalf("%s never received its message despite the w1 failure", node)
				}
			}
		})
	}
}

// TestTCPSendToDeadPeerIsNodeDown: transport-level send failures map to
// ErrNodeDown (the fail-stop model), so engines can demote rather than
// abort when a remote worker process dies between rounds.
func TestTCPSendToDeadPeerIsNodeDown(t *testing.T) {
	n := NewTCPNet()
	defer n.Close()
	if err := n.Register("server"); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("w0"); err != nil {
		t.Fatal(err)
	}
	// Establish the connection, then kill the peer's listener and
	// readers WITHOUT marking it down — the sender must discover the
	// death at the socket, exactly like a remote process that vanished.
	if err := n.Send(Message{From: "server", To: "w0", Type: "batches", Kind: CtoW, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	l := n.listeners["w0"]
	n.mu.Unlock()
	l.Close()
	// The first send after the crash may still be buffered by the OS;
	// keep sending until the broken pipe surfaces.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := n.Send(Message{From: "server", To: "w0", Type: "batches", Kind: CtoW, Payload: make([]byte, 1<<16)})
		if err != nil {
			if !errors.Is(err, ErrNodeDown) {
				t.Fatalf("send error = %v, want ErrNodeDown", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("send to crashed TCP peer never failed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPSendRedialsStaleConnection: a pooled connection torn down
// under the sender (idle timeout, NAT reset) must NOT read as a dead
// peer — Send retries over a fresh dial and delivers, because the
// round engines permanently demote ErrNodeDown destinations.
func TestTCPSendRedialsStaleConnection(t *testing.T) {
	n := NewTCPNet()
	defer n.Close()
	for _, node := range []string{"server", "w0"} {
		if err := n.Register(node); err != nil {
			t.Fatal(err)
		}
	}
	send := func() error {
		return n.Send(Message{From: "server", To: "w0", Type: "batches", Kind: CtoW, Payload: []byte("x")})
	}
	if err := send(); err != nil {
		t.Fatal(err)
	}
	<-n.Inbox("w0")
	// Kill the pooled socket out from under the sender; the peer's
	// listener stays up.
	n.mu.Lock()
	gc := n.conns["server→w0"]
	n.mu.Unlock()
	gc.conn.Close()
	// The write on the dead socket must be retried on a fresh dial,
	// not surfaced as ErrNodeDown.
	if err := send(); err != nil {
		t.Fatalf("send over stale connection = %v, want redial success", err)
	}
	select {
	case <-n.Inbox("w0"):
	case <-time.After(5 * time.Second):
		t.Fatal("redialed message never delivered")
	}
}

func TestKindString(t *testing.T) {
	if CtoW.String() != "C→W" || WtoC.String() != "W→C" || WtoW.String() != "W→W" {
		t.Fatal("Kind.String broken")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

package simnet

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestFramesMatchFlatTwin: a message whose bytes ride in shared frames
// arrives with exactly the bytes of its flattened twin and moves the
// traffic counters by exactly the same amounts, over ChannelNet, a
// loopback TCPNet and a ChaosNet that delays and duplicates. Each twin
// gets a fresh net, closed before its counters are read, so a held-back
// delivery is counted too. TCPNet's first write takes the envelope and
// bytes from three frames, one of them empty; the rest spans several
// write chunks.
func TestFramesMatchFlatTwin(t *testing.T) {
	frames := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{1, 2, 3}, 50000), []byte("last frame")}
	framed := Message{From: "a", To: "b", Type: "batches", Kind: CtoW, Frames: frames, Payload: []byte("tail")}
	flat := framed
	flat = framed.private()
	if len(flat.Payload) != framed.Len() || flat.Len() != framed.Len() {
		t.Fatalf("flattened %d bytes, Len %d", len(flat.Payload), framed.Len())
	}
	for name, c := range map[string]struct {
		mk         func() Net
		deliveries int
	}{
		"channel": {func() Net { return NewChannelNet(0) }, 1},
		"tcp":     {func() Net { return NewTCPNet() }, 1},
		"chaos": {func() Net {
			return WrapChaos(NewChannelNet(0), ChaosConfig{Seed: 3, Delay: 1, MaxDelay: time.Millisecond, Duplicate: 1})
		}, 2},
	} {
		var moved [2]string
		for i, msg := range []Message{framed, flat} {
			n := c.mk()
			for _, node := range []string{"a", "b"} {
				if err := n.Register(node); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Send(msg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for d := 0; d < c.deliveries; d++ {
				select {
				case got := <-n.Inbox("b"):
					if !bytes.Equal(got.private().Payload, flat.Payload) || got.Type != msg.Type || got.Kind != msg.Kind {
						t.Fatalf("%s, twin %d: delivery %d differs from the flattened message", name, i, d)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s, twin %d: delivery %d never arrived", name, i, d)
				}
			}
			n.Close()
			s := n.Snapshot()
			moved[i] = fmt.Sprint(s.Bytes, s.Msgs, s.IngressByNode, s.EgressByNode)
		}
		if moved[0] != moved[1] {
			t.Fatalf("%s: framed message moved the counters by %s, its flat twin by %s", name, moved[0], moved[1])
		}
	}
}

// TestChaosCorruptionLeavesFramesUntouched: ChaosNet flips bytes of a
// private copy, so a corrupted delivery differs from what was sent while
// the sender's shared frames and payload keep every byte.
func TestChaosCorruptionLeavesFramesUntouched(t *testing.T) {
	frames := [][]byte{bytes.Repeat([]byte{7}, 4096), bytes.Repeat([]byte{9}, 100)}
	payload := []byte("tail")
	msg := Message{From: "a", To: "b", Type: "batches", Kind: CtoW, Frames: frames, Payload: payload}
	want := msg.private().Payload
	c := WrapChaos(NewChannelNet(0), ChaosConfig{Seed: 5, Corrupt: 1})
	defer c.Close()
	for _, node := range []string{"a", "b"} {
		if err := c.Register(node); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	got := <-c.Inbox("b")
	if bytes.Equal(got.private().Payload, want) || got.Len() != len(want) {
		t.Fatalf("corrupted delivery of %d bytes equals the original or changed length", got.Len())
	}
	if !bytes.Equal(msg.private().Payload, want) || !bytes.Equal(frames[0], want[:4096]) || string(payload) != "tail" {
		t.Fatal("corruption wrote to the sender's frames or payload")
	}
}

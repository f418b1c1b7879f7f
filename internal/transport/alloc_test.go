//go:build !race

package transport

// Allocation gates for the per-message paths of the live runtime. The race
// detector's instrumentation allocates behind the scenes (and its sync.Pool
// drops items at random), so exact pins only mean something without it.

import (
	"testing"
	"time"
)

// TestPingRoundTripAllocations pins a warm Node.Ping over a zero-delay
// loopback at two heap allocations: the pong's delay body (it escapes
// through the Endpoint interface) and the decoded copy of it the caller
// receives. The call record, its timer and both frames are recycled.
func TestPingRoundTripAllocations(t *testing.T) {
	lb := NewLoopback(LoopbackConfig{})
	epA, _ := lb.Open(1)
	epB, _ := lb.Open(2)
	a, b := NewNode(epA), NewNode(epB)
	defer a.Close()
	defer b.Close()

	ping := func() {
		if _, err := a.Ping(2, time.Second, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm the record and frame pools
		ping()
	}
	if got := testing.AllocsPerRun(2000, ping); got > 2 {
		t.Fatalf("%v allocations per warm Ping round trip, want ≤ 2 (the pong's delay body and its decoded copy)", got)
	}
}

// TestLoopbackSendAllocatesNothing pins the send path itself: validating,
// framing and decoding a path-less, body-less message into a pooled buffer,
// the endpoint lookup and the mailbox enqueue.
func TestLoopbackSendAllocatesNothing(t *testing.T) {
	lb := NewLoopback(LoopbackConfig{DelayMS: halfLat})
	a, _ := lb.Open(1)
	b, _ := lb.Open(2)
	defer a.Close()
	defer b.Close()

	send := func() {
		if err := a.Send(2, Message{Type: TData, Key: 7}); err != nil {
			t.Fatal(err)
		}
		<-b.Recv()
	}
	send()
	if got := testing.AllocsPerRun(2000, send); got != 0 {
		t.Fatalf("%v allocations per warm loopback Send, want 0", got)
	}
}

func TestAppendEncodeIntoCapacityAllocatesNothing(t *testing.T) {
	m := Message{Type: TWalk, TTL: 2, Epoch: 1, Seq: 9, Src: 3, Dst: 4, Key: 5, Path: []int{1, 2, 3}, Body: []byte("payload")}
	buf := make([]byte, 0, 256)
	if got := testing.AllocsPerRun(1000, func() {
		var err error
		if buf, err = appendEncode(buf[:0], m); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("%v allocations per appendEncode into a buffer with capacity, want 0", got)
	}
}

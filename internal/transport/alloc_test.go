//go:build !race

package transport

// Allocation gates for the per-message paths of the live runtime. The race
// detector's instrumentation allocates behind the scenes (and its sync.Pool
// drops items at random), so exact pins only mean something without it.

import (
	"testing"
	"time"
)

// TestPingRoundTripAllocations pins a warm round trip over a zero-delay
// loopback at no heap allocation, both as a blocking Node.Ping and as a
// callback Node.Call whose done was bound once. The pong body, the delivery
// buffer it is lent in, the call record with its timer and its copy of the
// reply, and Ping's hand-off are recycled.
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
	var rtt float64
	var err error
	done := func(in Inbound, e error) { rtt, err = PongRTT(in, e) }
	call := func() {
		rtt, err = -1, nil
		a.Call(2, Message{Type: TPing}, 1000, 0, done)
		if err != nil || rtt != 0 {
			t.Fatalf("Call's done saw RTT %v, %v; want 0 before Call returned", rtt, err)
		}
	}
	for name, rt := range map[string]func(){"Ping": ping, "Call": call} {
		for i := 0; i < 100; i++ { // warm the record and delivery pools
			rt()
		}
		if got := testing.AllocsPerRun(2000, rt); got != 0 {
			t.Fatalf("%v allocations per warm %s round trip, want 0", got, name)
		}
	}
}

// TestLoopbackSendAllocatesNothing pins the send path itself: validating
// the message, the endpoint lookup, lending a path or body in a pooled
// delivery buffer and poisoning it, and the call of the receiver — for a
// bare message, a walk hop's path and a measurement list's body.
func TestLoopbackSendAllocatesNothing(t *testing.T) {
	lb := NewLoopback(LoopbackConfig{DelayMS: halfLat})
	a, _ := lb.Open(1)
	b, _ := lb.Open(2)
	defer a.Close()
	defer b.Close()
	var got int
	b.Serve(func(in Inbound) { got = int(in.Msg.Key) + len(in.Msg.Path) + len(in.Msg.Body) })

	for _, m := range []Message{
		{Type: TData, Key: 7},
		{Type: TWalk, TTL: 1, Key: 7, Path: []int{3, 5, 8}},
		{Type: TMeasure, Key: 7, Body: make([]byte, 24)},
	} {
		want := int(m.Key) + len(m.Path) + len(m.Body)
		send := func() {
			got = 0
			if err := a.Send(2, m); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("type %d: receiver read %d, want %d", m.Type, got, want)
			}
		}
		send()
		if n := testing.AllocsPerRun(2000, send); n != 0 {
			t.Fatalf("%v allocations per warm loopback Send of type %d, want 0", n, m.Type)
		}
	}
}

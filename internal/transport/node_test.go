package transport

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestCallRecordRecyclingIsolatesCalls hammers the pooled call records with
// the traffic that could leak between them: every pong is duplicated half
// the time, and the first-attempt deadline is far below a round trip, so
// most calls retransmit and their earlier attempts' replies arrive late —
// while the record they were addressed to is being retired or already
// serves another goroutine's call. Every request carries a unique Key, which
// the pong echoes: a reply that reached a recycled record shows up as a
// foreign key or a sequence number out of the caller's own order.
func TestCallRecordRecyclingIsolatesCalls(t *testing.T) {
	inj, err := faults.NewInjector(faults.Config{Seed: 0xCA11, DupProb: 0.5, JitterMS: 3})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback(LoopbackConfig{DelayMS: halfLat, Faults: inj})
	epA, _ := lb.Open(1)
	epB, _ := lb.Open(2)
	a, b := NewNode(epA), NewNode(epB)
	defer a.Close()
	defer b.Close()

	const callers, perCaller = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastSeq uint64
			for i := 0; i < perCaller; i++ {
				key := uint32(g*perCaller + i + 1)
				// 2µs doubles to a full second within the retry budget, so
				// on a fault-free-loss link no call can run out of attempts.
				in, err := a.Call(2, Message{Type: TPing, Key: key}, 2*time.Microsecond, 20)
				if err != nil {
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if in.Msg.Type != TPong || in.Msg.Key != key {
					t.Errorf("caller %d call %d: got type %d key %d, want a pong with key %d — a reply crossed call records",
						g, i, in.Msg.Type, in.Msg.Key, key)
					return
				}
				// Seqs come from one counter and each caller is sequential,
				// so the replies it accepts carry strictly ascending seqs.
				if in.Msg.Seq <= lastSeq {
					t.Errorf("caller %d call %d: reply seq %d after %d — a reply to an earlier call", g, i, in.Msg.Seq, lastSeq)
					return
				}
				lastSeq = in.Msg.Seq
			}
		}(g)
	}
	wg.Wait()

	stale, dup, retries := a.staleReplies.Load(), a.dupReplies.Load(), a.retries.Load()
	if stale+dup == 0 {
		t.Fatalf("no stale or duplicate reply absorbed (%d retries): the recycling race was never exercised", retries)
	}
	if retries == 0 {
		t.Fatalf("no retransmission (%d stale, %d duplicate replies): the deadline did not force late replies", stale, dup)
	}
	a.mu.Lock()
	left := len(a.pending)
	a.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d call records still pending after every Call returned", left)
	}
}

// TestHandleNilDropsTraffic pins that Handle(nil) uninstalls the handler
// instead of leaving the pump a nil function to call.
func TestHandleNilDropsTraffic(t *testing.T) {
	lb := NewLoopback(LoopbackConfig{DelayMS: halfLat})
	epA, _ := lb.Open(1)
	epB, _ := lb.Open(2)
	a, b := NewNode(epA), NewNode(epB)
	defer a.Close()
	defer b.Close()

	got := make(chan Inbound, 1)
	b.Handle(func(in Inbound) { got <- in })
	b.Handle(nil)
	if err := a.Send(2, Message{Type: TWalk}); err != nil {
		t.Fatal(err)
	}
	// The pump is one goroutine: once it has answered the ping it has
	// already been through the walk.
	if _, err := a.Ping(2, time.Second, 0); err != nil {
		t.Fatalf("ping after a handler-less walk: %v", err)
	}
	select {
	case in := <-got:
		t.Fatalf("uninstalled handler still ran: %+v", in.Msg)
	default:
	}
}

// TestPingRejectsNonFiniteRTT: a virtual RTT the latency plane cannot stand
// behind — NaN, or an unreachable pair's +Inf — fails the Ping instead of
// reaching a Var evaluation as a number, and so does a pong whose body is
// not one delay (the 9-byte flag-and-delay frame of old, or no body).
// Finite delays still measure.
func TestPingRejectsNonFiniteRTT(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), -1} {
		lb := NewLoopback(LoopbackConfig{DelayMS: func(x, y int) float64 {
			if x == 1 || y == 1 {
				return d
			}
			return 2
		}})
		epA, _ := lb.Open(1)
		epB, _ := lb.Open(2)
		epC, _ := lb.Open(3)
		a, b, c := NewNode(epA), NewNode(epB), NewNode(epC)
		if rtt, err := a.Ping(2, time.Second, 0); err == nil {
			t.Errorf("one-way delay %v: Ping returned RTT %v, want an error", d, rtt)
		}
		if rtt, err := b.Ping(3, time.Second, 0); err != nil || rtt != 4 {
			t.Errorf("one-way delay 2: Ping = %v, %v, want 4", rtt, err)
		}
		a.Close()
		b.Close()
		c.Close()
	}

	lb := NewLoopback(LoopbackConfig{DelayMS: halfLat})
	epA, _ := lb.Open(1)
	raw, _ := lb.Open(2) // no node: the test answers the pings itself
	a := NewNode(epA)
	defer a.Close()
	defer raw.Close()
	for _, body := range [][]byte{append([]byte{1}, putDelay(make([]byte, 8), 2)...), {}} {
		go func() {
			in := <-raw.Recv()
			_ = raw.Send(1, Message{Type: TPong, Seq: in.Msg.Seq, Body: body})
		}()
		if rtt, err := a.Ping(2, time.Second, 0); err == nil {
			t.Errorf("pong body %x: Ping returned RTT %v, want an error", body, rtt)
		}
	}
}

// TestCloseFailsCallsInFlight: calls waiting on a peer that never answers
// return an error as soon as their node closes, well before their deadline,
// and a call made after Close fails at once.
func TestCloseFailsCallsInFlight(t *testing.T) {
	lb := NewLoopback(LoopbackConfig{})
	epA, _ := lb.Open(1)
	mute, _ := lb.Open(2) // an endpoint with no node: nothing answers
	defer mute.Close()
	a := NewNode(epA)

	const callers = 8
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			_, err := a.Call(2, Message{Type: TPing}, time.Hour, 0)
			errs <- err
		}()
	}
	// Close once every call is registered, so the test covers the close
	// notice rather than the refusal of a late call.
	for {
		a.mu.Lock()
		n := len(a.pending)
		a.mu.Unlock()
		if n == callers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a.Close()
	for g := 0; g < callers; g++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a call to a mute peer succeeded")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close left a call waiting")
		}
	}
	if _, err := a.Call(2, Message{Type: TPing}, time.Hour, 0); err == nil {
		t.Fatal("a call after Close succeeded")
	}
}

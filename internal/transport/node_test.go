package transport

import (
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

	s := a.Stats()
	if s.StaleReplies+s.DupReplies == 0 {
		t.Fatalf("no stale or duplicate reply absorbed (%+v): the recycling race was never exercised", s)
	}
	if s.Retries == 0 {
		t.Fatalf("no retransmission (%+v): the deadline did not force late replies", s)
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

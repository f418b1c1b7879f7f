package transport

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// lateEndpoint hands every delivery to its receiver late, in arrival order,
// from a goroutine of its own: the asynchronous network the loopback, which
// delivers by call, is not. It queues a copy, as the loopback lends each
// delivery's Path and Body for the call only.
type lateEndpoint struct {
	Endpoint
	q    chan Inbound
	done chan struct{}
	once sync.Once
}

// late decorates ep. Its queue holds 1024 deliveries, far more than the
// test's 8 callers and their retransmissions' duplicated pongs keep in
// flight, so a delivery rarely waits for room.
func late(ep Endpoint) *lateEndpoint {
	return &lateEndpoint{Endpoint: ep, q: make(chan Inbound, 1024), done: make(chan struct{})}
}

func (e *lateEndpoint) Serve(f func(Inbound)) {
	e.Endpoint.Serve(func(in Inbound) {
		select {
		case e.q <- keep(in):
		case <-e.done:
		}
	})
	go func() {
		for {
			select {
			case in := <-e.q:
				f(in)
			case <-e.done:
				return
			}
		}
	}()
}

func (e *lateEndpoint) Close() error {
	e.once.Do(func() { close(e.done) })
	return e.Endpoint.Close()
}

// TestCallRecordRecyclingIsolatesCalls hammers the pooled call records with
// the traffic that could leak between them: every pong is duplicated half
// the time, the caller's replies reach it late, from a goroutine of their
// own, and the first-attempt deadline is far below that hand-off, so most
// calls retransmit and their earlier attempts' replies arrive late — while
// the record they were addressed to is being retired or already serves
// another goroutine's call. Every request carries a unique Key, which the
// pong echoes: a reply that reached a recycled record shows up as a foreign
// key or a sequence number out of the caller's own order.
func TestCallRecordRecyclingIsolatesCalls(t *testing.T) {
	inj, err := faults.NewInjector(faults.Config{Seed: 0xCA11, DupProb: 0.5, JitterMS: 3})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback(LoopbackConfig{DelayMS: halfLat, Faults: inj})
	epA, _ := lb.Open(1)
	epB, _ := lb.Open(2)
	a, b := NewNode(late(epA)), NewNode(epB)
	defer a.Close()
	defer b.Close()

	const callers, perCaller = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			type reply struct {
				in  Inbound
				err error
			}
			replies := make(chan reply, 1)
			done := func(in Inbound, err error) { replies <- reply{in, err} }
			var lastSeq uint64
			for i := 0; i < perCaller; i++ {
				key := uint32(g*perCaller + i + 1)
				// 2µs doubles to a full second within the retry budget, so
				// on a fault-free-loss link no call can run out of attempts.
				a.Call(2, Message{Type: TPing, Key: key}, 0.002, 20, done)
				r := <-replies
				if r.err != nil {
					t.Errorf("caller %d call %d: %v", g, i, r.err)
					return
				}
				in := r.in
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
// instead of leaving dispatch a nil function to call.
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
	// The loopback delivers by call: once Send returns, b has been
	// through the walk.
	if err := a.Send(2, Message{Type: TWalk}); err != nil {
		t.Fatal(err)
	}
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
		raw.Serve(func(in Inbound) {
			_ = raw.Send(1, Message{Type: TPong, Seq: in.Msg.Seq, Body: body})
		})
		if rtt, err := a.Ping(2, time.Second, 0); err == nil {
			t.Errorf("pong body %x: Ping returned RTT %v, want an error", body, rtt)
		}
	}
}

// TestCloseFailsCallsInFlight: calls waiting on a peer that never answers
// fail, each running its done exactly once, before Close returns and well
// before their deadline, and a call made after Close fails at once.
func TestCloseFailsCallsInFlight(t *testing.T) {
	lb := NewLoopback(LoopbackConfig{})
	epA, _ := lb.Open(1)
	mute, _ := lb.Open(2) // an endpoint with no node: nothing answers
	defer mute.Close()
	a := NewNode(epA)

	const callers = 8
	var ran [callers + 1]atomic.Int32
	var failed atomic.Int32
	for g := 0; g <= callers; g++ {
		done := func(in Inbound, err error) {
			ran[g].Add(1)
			if err != nil {
				failed.Add(1)
			}
		}
		if g == callers {
			a.Close()
			if n := failed.Load(); n != callers {
				t.Fatalf("Close returned with %d of %d calls failed", n, callers)
			}
		}
		a.Call(2, Message{Type: TPing}, 3.6e6, 0, done)
	}
	if failed.Load() != callers+1 {
		t.Fatal("a call after Close did not fail at once")
	}
	for g := range ran {
		if n := ran[g].Load(); n != 1 {
			t.Fatalf("call %d ran its done %d times, want once", g, n)
		}
	}
}

// TestDeliveryHoldsNoNetworkLock: a pong is sent from inside the ping's
// delivery, so a delivery must not hold Loopback.mu's read side — a nested
// RLock deadlocks as soon as an Open or a close waits on the write side
// between the ping's lookup and the pong's. Pings run while another host
// opens and closes in a loop.
func TestDeliveryHoldsNoNetworkLock(t *testing.T) {
	lb := NewLoopback(LoopbackConfig{})
	epA, _ := lb.Open(1)
	epB, _ := lb.Open(2)
	a, b := NewNode(epA), NewNode(epB)

	stop, churned := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(churned)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ep, err := lb.Open(3)
			if err != nil {
				t.Error(err)
				return
			}
			ep.Close()
		}
	}()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 5000; i++ {
			if _, err := a.Ping(2, time.Second, 0); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		close(stop)
		<-churned
		a.Close()
		b.Close()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		// Deadlocked goroutines cannot be stopped, nor the nodes closed:
		// fail without waiting.
		t.Fatal("pings stalled while a host opened and closed: a delivery holds the network lock")
	}
}

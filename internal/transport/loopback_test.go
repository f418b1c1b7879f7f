package transport

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

func testLat(a, b int) float64 {
	if a == b {
		return 0
	}
	return float64(3*(a+b)%17 + 1)
}

func halfLat(a, b int) float64 { return testLat(a, b) / 2 }

func TestLoopbackDeliveryAndVirtualDelay(t *testing.T) {
	lb := NewLoopback(LoopbackConfig{DelayMS: halfLat})
	a, err := lb.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lb.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	if err := a.Send(2, Message{Type: TData, Body: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	select {
	case in := <-b.Recv():
		if string(in.Msg.Body) != "hi" || in.Msg.Src != 1 || in.Msg.Dst != 2 {
			t.Fatalf("bad delivery %#v", in.Msg)
		}
		if in.DelayMS != halfLat(1, 2) {
			t.Fatalf("virtual delay = %v, want %v", in.DelayMS, halfLat(1, 2))
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}

	// Datagram semantics: unknown destination vanishes without error.
	if err := a.Send(99, Message{Type: TData}); err != nil {
		t.Fatal(err)
	}
	if got := lb.Stats().NoEndpoint; got != 1 {
		t.Fatalf("NoEndpoint = %d, want 1", got)
	}

	// Duplicate Open is an error; reopen after Close is a rejoin.
	if _, err := lb.Open(1); err == nil {
		t.Fatal("duplicate Open(1) accepted")
	}
	b.Close()
	if _, err := lb.Open(2); err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
}

func TestLoopbackSendIsolation(t *testing.T) {
	// A receiver must not observe later mutations of the sender's slices.
	lb := NewLoopback(LoopbackConfig{})
	a, _ := lb.Open(1)
	b, _ := lb.Open(2)
	defer a.Close()
	defer b.Close()

	path := []int{1, 2, 3}
	body := []byte("abc")
	if err := a.Send(2, Message{Type: TWalk, Path: path, Body: body}); err != nil {
		t.Fatal(err)
	}
	path[0], body[0] = 9, 'z'
	in := <-b.Recv()
	if in.Msg.Path[0] != 1 || in.Msg.Body[0] != 'a' {
		t.Fatalf("delivery aliased sender memory: %#v", in.Msg)
	}
}

func TestLoopbackFaultScheduleDeterministic(t *testing.T) {
	// The acceptance criterion of the live fault plane: a seeded run with
	// loss produces the identical fault schedule every time, regardless of
	// wall-clock timing.
	run := func() ([]Drop, LoopbackStats) {
		inj, err := faults.NewInjector(faults.Config{Seed: 0xF00D, LossProb: 0.25, DupProb: 0.10, JitterMS: 2})
		if err != nil {
			t.Fatal(err)
		}
		lb := NewLoopback(LoopbackConfig{DelayMS: halfLat, Faults: inj})
		eps := make([]Endpoint, 4)
		for i := range eps {
			ep, err := lb.Open(i)
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
		}
		// A fixed traffic pattern: every ordered pair exchanges 50 messages.
		for k := 0; k < 50; k++ {
			for _, src := range eps {
				for dst := range eps {
					if dst == src.Host() {
						continue
					}
					if err := src.Send(dst, Message{Type: TData, Key: uint32(k)}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, ep := range eps {
			ep.Close()
		}
		return lb.Drops(), lb.Stats()
	}

	d1, s1 := run()
	d2, s2 := run()
	if len(d1) == 0 {
		t.Fatal("loss schedule empty; fault gate not engaged")
	}
	if len(d1) != len(d2) {
		t.Fatalf("fault schedules differ in length: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("fault schedules diverge at %d: %+v vs %+v", i, d1[i], d2[i])
		}
	}
	if s1 != s2 {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
}

// sortDrops orders a drop log by (Src, Dst, Seq) — the canonical form for
// comparing runs whose senders raced each other to the log.
func sortDrops(d []Drop) []Drop {
	sort.Slice(d, func(i, j int) bool {
		if d[i].Src != d[j].Src {
			return d[i].Src < d[j].Src
		}
		if d[i].Dst != d[j].Dst {
			return d[i].Dst < d[j].Dst
		}
		return d[i].Seq < d[j].Seq
	})
	return d
}

func TestLoopbackFaultScheduleConcurrentSenders(t *testing.T) {
	// Sequence numbers are per sender, so senders that race each other draw
	// the same verdicts whatever the interleaving: eight goroutines, each the
	// only sender of its endpoint, reproduce the same drop set and tallies.
	const hosts, rounds = 8, 60
	run := func() ([]Drop, LoopbackStats) {
		inj, err := faults.NewInjector(faults.Config{Seed: 0xBEEF, LossProb: 0.2, DupProb: 0.1, JitterMS: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Nobody drains: the queue holds every copy, so Delivered is a
		// function of the verdicts alone.
		lb := NewLoopback(LoopbackConfig{DelayMS: halfLat, Faults: inj, Queue: 2 * hosts * rounds})
		eps := make([]Endpoint, hosts)
		for i := range eps {
			ep, err := lb.Open(i)
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
		}
		var wg sync.WaitGroup
		for _, src := range eps {
			wg.Add(1)
			go func(src Endpoint) {
				defer wg.Done()
				for k := 0; k < rounds; k++ {
					for dst := 0; dst < hosts; dst++ {
						if dst == src.Host() {
							continue
						}
						if err := src.Send(dst, Message{Type: TData, Key: uint32(k)}); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(src)
		}
		wg.Wait()
		for _, ep := range eps {
			ep.Close()
		}
		return lb.Drops(), lb.Stats()
	}

	d1, s1 := run()
	d2, s2 := run()
	if len(d1) == 0 {
		t.Fatal("loss schedule empty; fault gate not engaged")
	}
	// What Drops documents, on the raw log: per link ascending, and every
	// Seq one the link actually drew.
	last := make(map[[2]int]uint64)
	for _, d := range d1 {
		link := [2]int{d.Src, d.Dst}
		if prev, seen := last[link]; seen && d.Seq <= prev {
			t.Fatalf("link %v logged seq %d after %d", link, d.Seq, prev)
		}
		if d.Seq >= rounds {
			t.Fatalf("link %v dropped seq %d, but sent only %d messages", link, d.Seq, rounds)
		}
		last[link] = d.Seq
	}
	if !reflect.DeepEqual(sortDrops(d1), sortDrops(d2)) {
		t.Fatalf("drop sets differ across runs: %d vs %d drops", len(d1), len(d2))
	}
	if s1 != s2 {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
	if want := uint64(hosts * (hosts - 1) * rounds); s1.Sent+s1.Dropped != want {
		t.Fatalf("Sent %d + Dropped %d, want %d sends accounted for", s1.Sent, s1.Dropped, want)
	}
}

func TestLoopbackSequencesSurviveReopen(t *testing.T) {
	// A host that closes and reopens (a chaos recovery) continues its links'
	// sequence numbers, so the fault schedule of the whole pattern is the
	// one the never-closed run draws.
	const hosts, rounds = 4, 80
	run := func(reopenAt int) []Drop {
		inj, err := faults.NewInjector(faults.Config{Seed: 0xFEED, LossProb: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		lb := NewLoopback(LoopbackConfig{Faults: inj})
		eps := make([]Endpoint, hosts)
		for i := range eps {
			if eps[i], err = lb.Open(i); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < rounds; k++ {
			if k == reopenAt {
				eps[1].Close()
				if eps[1], err = lb.Open(1); err != nil {
					t.Fatal(err)
				}
			}
			for _, src := range eps {
				for dst := 0; dst < hosts; dst++ {
					if dst != src.Host() {
						if err := src.Send(dst, Message{Type: TData}); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		return lb.Drops()
	}
	whole, reopened := run(-1), run(rounds/2)
	if len(whole) == 0 {
		t.Fatal("loss schedule empty; fault gate not engaged")
	}
	if !reflect.DeepEqual(whole, reopened) {
		t.Fatalf("reopening host 1 changed the fault schedule: %d vs %d drops", len(whole), len(reopened))
	}
}

func TestLoopbackNoInjectorAccounting(t *testing.T) {
	// Without an injector nothing is dropped, and every send ends in exactly
	// one of the three tallies — exact once the burst has quiesced.
	const senders, burst = 8, 500
	lb := NewLoopback(LoopbackConfig{DelayMS: halfLat, Queue: 64})
	sink, err := lb.Open(100) // never drained: overflows after 64
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		ep, err := lb.Open(i)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < burst; k++ {
				dst := 100
				if k%5 == 0 {
					dst = 999 // no such host
				}
				if err := ep.Send(dst, Message{Type: TData}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d := lb.Drops(); len(d) != 0 {
		t.Fatalf("%d drops without an injector", len(d))
	}
	s := lb.Stats()
	if s.Sent != senders*burst || s.Sent != s.Delivered+s.Overflows+s.NoEndpoint {
		t.Fatalf("Sent %d of %d ≠ Delivered %d + Overflows %d + NoEndpoint %d", s.Sent, senders*burst, s.Delivered, s.Overflows, s.NoEndpoint)
	}
	if s.Delivered != 64 || s.NoEndpoint != senders*burst/5 || s.Dropped != 0 || s.Dups != 0 {
		t.Fatalf("stats %+v, want Delivered=64 NoEndpoint=%d and no fault tallies", s, senders*burst/5)
	}
}

func TestNodePingVirtualRTTExact(t *testing.T) {
	// Realizing sim latency d as d/2 per leg must sum back to exactly d, so
	// live conformance arithmetic matches the sim float-for-float.
	lb := NewLoopback(LoopbackConfig{DelayMS: halfLat})
	epA, _ := lb.Open(3)
	epB, _ := lb.Open(8)
	a, b := NewNode(epA), NewNode(epB)
	defer a.Close()
	defer b.Close()

	for i := 0; i < 10; i++ {
		rtt, err := a.Ping(8, time.Second, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rtt != testLat(3, 8) {
			t.Fatalf("virtual RTT = %v, want exactly %v", rtt, testLat(3, 8))
		}
	}
	if got := a.pings.Load(); got != 10 {
		t.Fatalf("pings = %d, want 10", got)
	}
}

func TestNodeCallRetransmitsThroughLoss(t *testing.T) {
	// Heavy loss + enough retries: calls still complete, and the retry
	// counters show the machinery engaged.
	inj, err := faults.NewInjector(faults.Config{Seed: 7, LossProb: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback(LoopbackConfig{Faults: inj})
	epA, _ := lb.Open(1)
	epB, _ := lb.Open(2)
	a, b := NewNode(epA), NewNode(epB)
	defer a.Close()
	defer b.Close()

	for i := 0; i < 30; i++ {
		if _, err := a.Ping(2, 8*time.Millisecond, 10); err != nil {
			t.Fatalf("ping %d through loss: %v", i, err)
		}
	}
	if a.retries.Load() == 0 {
		t.Fatal("no retransmissions under 25% loss — retry machinery inert")
	}
	_ = b
}

func TestNodeCallTimesOutWhenPeerGone(t *testing.T) {
	lb := NewLoopback(LoopbackConfig{})
	epA, _ := lb.Open(1)
	a := NewNode(epA)
	defer a.Close()

	start := time.Now()
	_, err := a.Call(42, Message{Type: TMeasure}, 5*time.Millisecond, 2)
	if err == nil {
		t.Fatal("call to absent host succeeded")
	}
	// Deadlines double: 5+10+20 = 35ms minimum elapsed.
	if el := time.Since(start); el < 35*time.Millisecond {
		t.Fatalf("gave up after %v; expected ≥35ms of doubling deadlines", el)
	}
	if to, re := a.timeouts.Load(), a.retries.Load(); to != 3 || re != 2 {
		t.Fatalf("timeouts/retries = %d/%d, want 3/2", to, re)
	}
}

func TestNodeHandlerReceivesWalks(t *testing.T) {
	lb := NewLoopback(LoopbackConfig{})
	epA, _ := lb.Open(1)
	epB, _ := lb.Open(2)
	a, b := NewNode(epA), NewNode(epB)
	defer a.Close()
	defer b.Close()

	got := make(chan Message, 1)
	b.Handle(func(in Inbound) { got <- in.Msg })
	if err := a.Send(2, Message{Type: TWalk, TTL: 2, Key: 1, Path: []int{5}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Type != TWalk || m.TTL != 2 || len(m.Path) != 1 || m.Path[0] != 5 {
			t.Fatalf("handler saw %#v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("handler never ran")
	}
}

func TestLoopbackDupDelivery(t *testing.T) {
	inj, err := faults.NewInjector(faults.Config{Seed: 11, DupProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback(LoopbackConfig{Faults: inj})
	a, _ := lb.Open(1)
	b, _ := lb.Open(2)
	defer a.Close()
	defer b.Close()

	if err := a.Send(2, Message{Type: TData}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-b.Recv():
		case <-time.After(time.Second):
			t.Fatalf("copy %d never arrived", i)
		}
	}
	if s := lb.Stats(); s.Dups != 1 || s.Delivered != 2 {
		t.Fatalf("stats %+v, want Dups=1 Delivered=2", s)
	}
}

func TestLoopbackJitterBounded(t *testing.T) {
	inj, err := faults.NewInjector(faults.Config{Seed: 5, JitterMS: 4})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback(LoopbackConfig{DelayMS: halfLat, Faults: inj})
	a, _ := lb.Open(1)
	b, _ := lb.Open(2)
	defer a.Close()
	defer b.Close()

	base := halfLat(1, 2)
	sawJitter := false
	for i := 0; i < 50; i++ {
		if err := a.Send(2, Message{Type: TData}); err != nil {
			t.Fatal(err)
		}
		in := <-b.Recv()
		j := in.DelayMS - base
		if j < 0 || j >= 4 || math.IsNaN(j) {
			t.Fatalf("jitter %v outside [0,4)", j)
		}
		if j > 0 {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Fatal("no jitter observed over 50 messages")
	}
}

func TestLoopbackMailboxOverflowPerEndpoint(t *testing.T) {
	// A tiny bounded mailbox: everything past the receiver's capacity is
	// shed and counted once, in the network's stats.
	lb := NewLoopback(LoopbackConfig{Queue: 4})

	a, err := lb.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lb.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send(2, Message{Type: TData}); err != nil {
			t.Fatal(err)
		}
	}
	const wantShed = 10 - 4
	if got := lb.Stats().Overflows; got != wantShed {
		t.Fatalf("Stats().Overflows = %d, want %d", got, wantShed)
	}
	// The receiver's mailbox is full; the sender's is untouched.
	if got := len(b.Recv()); got != 4 {
		t.Fatalf("receiver holds %d messages, want its 4-slot mailbox full", got)
	}
	if got := len(a.Recv()); got != 0 {
		t.Fatalf("sender holds %d messages, want 0", got)
	}
}

package event

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineImplementsClock pins the seam: the sim engine is a Clock, and
// Schedule behaves like After.
func TestEngineImplementsClock(t *testing.T) {
	var c Clock = New()
	e := c.(*Engine)
	ran := 0
	c.Schedule(5, func() { ran++ })
	tok := c.Schedule(10, func() { ran++ })
	if !tok.Pending() {
		t.Fatal("scheduled timer not pending")
	}
	if !tok.Cancel() {
		t.Fatal("cancel of pending timer reported false")
	}
	if tok.Cancel() {
		t.Fatal("second cancel reported true")
	}
	drain(e)
	if ran != 1 {
		t.Fatalf("ran %d handlers, want 1 (one cancelled)", ran)
	}
	if c.Now() != 5 {
		t.Fatalf("clock at %v, want 5", c.Now())
	}
}

// TestTokenConcurrentCancel drives the live-runtime path the sim never
// exercises: many goroutines cancel the same Token while the engine steps
// it. Exactly one party may win the pending event — either one canceller
// (handler never runs) or the engine (every Cancel reports false).
func TestTokenConcurrentCancel(t *testing.T) {
	for round := 0; round < 200; round++ {
		e := New()
		var ran atomic.Int32
		tok := e.After(1, func(*Engine) { ran.Add(1) })

		const cancellers = 4
		var won atomic.Int32
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(cancellers)
		for i := 0; i < cancellers; i++ {
			go func() {
				defer done.Done()
				start.Wait()
				if tok.Cancel() {
					won.Add(1)
				}
			}()
		}
		start.Done()
		drain(e)
		done.Wait()

		total := int(won.Load()) + int(ran.Load())
		if total != 1 {
			t.Fatalf("round %d: %d cancels won and handler ran %d times; exactly one party must win",
				round, won.Load(), ran.Load())
		}
		if tok.Pending() {
			t.Fatalf("round %d: token still pending after resolution", round)
		}
	}
}

// TestTokenRetransmitEpochConcurrentCancel reproduces internal/core's
// retransmit discipline — an epoch guard plus a cancellable timer — with the
// cancel arriving from a different goroutine, as happens on the live path
// when churn invalidates an in-flight retransmit chain. The handler must
// observe either a clean cancel (never runs) or a consistent epoch; a stale
// fire after the epoch bump must be absorbed, never double-counted.
func TestTokenRetransmitEpochConcurrentCancel(t *testing.T) {
	for round := 0; round < 200; round++ {
		e := New()
		var mu sync.Mutex
		epoch := 0
		var retransmits, stale int

		var tok *Token
		tok = e.After(1, func(*Engine) {
			mu.Lock()
			defer mu.Unlock()
			// The engine claimed the event, so the token must no longer be
			// pending from inside its own handler.
			if tok.Pending() {
				t.Error("token pending inside its own handler")
			}
			if epoch != 0 {
				stale++ // absorbed: churn raced the timer
				return
			}
			retransmits++
		})

		var cancelled atomic.Bool
		var done sync.WaitGroup
		done.Add(1)
		go func() {
			defer done.Done()
			// Churn path on another goroutine: bump the epoch, then cancel.
			mu.Lock()
			epoch++
			mu.Unlock()
			cancelled.Store(tok.Cancel())
		}()
		drain(e)
		done.Wait()

		mu.Lock()
		ran := retransmits + stale
		switch {
		case ran > 1:
			t.Fatalf("round %d: handler ran %d times", round, ran)
		case cancelled.Load() && ran != 0:
			t.Fatalf("round %d: Cancel reported true but the handler ran", round)
		case !cancelled.Load() && ran != 1:
			t.Fatalf("round %d: Cancel reported false but the handler never ran", round)
		}
		// A retransmit counted in epoch 0 means the timer legitimately beat
		// the churn; a stale count means the epoch guard absorbed it. Either
		// is correct — what must never happen is a cancelled timer running
		// (checked above) or a double execution.
		mu.Unlock()
	}
}

// TestWallClockScheduleAndCancel exercises the live clock end to end:
// handlers fire on real time, run serialized, and cancellation from another
// goroutine is race-free.
func TestWallClockScheduleAndCancel(t *testing.T) {
	c := NewWallClock()
	defer c.Stop()

	fired := make(chan int, 16)
	c.Schedule(1, func() { fired <- 1 })
	tok := c.Schedule(500, func() { fired <- 2 })

	select {
	case got := <-fired:
		if got != 1 {
			t.Fatalf("first firing was handler %d", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wall timer never fired")
	}
	if !tok.Cancel() {
		t.Fatal("cancel of far-future wall timer reported false")
	}
	if tok.Pending() {
		t.Fatal("cancelled wall timer still pending")
	}
	if now := c.Now(); now <= 0 {
		t.Fatalf("wall clock Now = %v, want > 0", now)
	}

	// Handlers are serialized on one runner: two immediate handlers must not
	// observe each other mid-flight.
	var inFlight, overlapped atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		c.Schedule(0, func() {
			defer wg.Done()
			if inFlight.Add(1) > 1 {
				overlapped.Add(1)
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
		})
	}
	wg.Wait()
	if overlapped.Load() != 0 {
		t.Fatal("wall clock ran handlers concurrently")
	}
}

// TestWallClockConcurrentCancel is the WallClock half of the live
// stale-timer story: a timer racing many cancellers resolves to exactly one
// winner.
func TestWallClockConcurrentCancel(t *testing.T) {
	c := NewWallClock()
	defer c.Stop()
	for round := 0; round < 100; round++ {
		var ran atomic.Int32
		done := make(chan struct{})
		tok := c.Schedule(0, func() {
			ran.Add(1)
			close(done)
		})
		var won atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if tok.Cancel() {
					won.Add(1)
				}
			}()
		}
		wg.Wait()
		if won.Load() == 0 {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: no cancel won yet handler never ran", round)
			}
		} else {
			// A cancel won; give a buggy implementation a moment to misfire.
			time.Sleep(200 * time.Microsecond)
		}
		if int(won.Load())+int(ran.Load()) != 1 {
			t.Fatalf("round %d: %d cancels won, handler ran %d times", round, won.Load(), ran.Load())
		}
	}
}

// TestWallTimerStopAfterFiring pins Stop's time.Timer meaning: true while
// the timer is armed, false once it fired or when it is not armed; a
// stopped timer re-arms with Reset.
func TestWallTimerStopAfterFiring(t *testing.T) {
	c := NewWallClock()
	defer c.Stop()
	fired := make(chan struct{}, 1)
	w := c.Timer(func() { fired <- struct{}{} })
	if w.Stop() {
		t.Fatal("Stop of a timer never armed reported true")
	}
	w.Reset(10_000)
	if !w.Stop() {
		t.Fatal("Stop of an armed timer reported false")
	}
	w.Reset(0)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("wall timer never fired")
	}
	if w.Stop() {
		t.Fatal("Stop after the firing reported true")
	}
}

// TestWallTimersNeverOverlap arms several re-armable timers on one clock,
// each re-arming itself from its handler: their handlers run one at a time.
func TestWallTimersNeverOverlap(t *testing.T) {
	c := NewWallClock()
	defer c.Stop()
	const timers, firings = 4, 50
	var inFlight, overlapped atomic.Int32
	var wg sync.WaitGroup
	wg.Add(timers)
	for i := 0; i < timers; i++ {
		var w Timer
		left := firings
		w = c.Timer(func() {
			if inFlight.Add(1) > 1 {
				overlapped.Add(1)
			}
			time.Sleep(10 * time.Microsecond)
			inFlight.Add(-1)
			if left--; left > 0 {
				w.Reset(0)
			} else {
				wg.Done()
			}
		})
		w.Reset(0)
	}
	wg.Wait()
	if overlapped.Load() != 0 {
		t.Fatalf("%d handlers overlapped on one clock", overlapped.Load())
	}
}

// TestWallClockStopDropsLaterFirings arms timers due around Stop: once Stop
// returns, no handler runs, whether it fires later or is queued already.
func TestWallClockStopDropsLaterFirings(t *testing.T) {
	c := NewWallClock()
	var stopped atomic.Bool
	var late atomic.Int32
	for i := 0; i < 200; i++ {
		w := c.Timer(func() {
			if stopped.Load() {
				late.Add(1)
			}
		})
		w.Reset(Time(i%3) * 0.5)
		c.Schedule(Time(i%3)*0.5, func() {
			if stopped.Load() {
				late.Add(1)
			}
		})
	}
	c.Stop()
	stopped.Store(true)
	time.Sleep(20 * time.Millisecond) // every timer above is due by now
	if late.Load() != 0 {
		t.Fatalf("%d handlers ran after Stop returned", late.Load())
	}
}

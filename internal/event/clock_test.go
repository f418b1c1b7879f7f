package event

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineImplementsClock pins the seam: the sim engine is a Clock,
// Schedule behaves like After, and a Clock timer stops.
func TestEngineImplementsClock(t *testing.T) {
	var c Clock = New()
	e := c.(*Engine)
	ran := 0
	c.Schedule(5, func() { ran++ })
	w := c.Timer(func() { ran++ })
	w.Reset(10)
	if !w.Stop() {
		t.Fatal("Stop of an armed timer reported false")
	}
	if w.Stop() {
		t.Fatal("second Stop reported true")
	}
	drain(e)
	if ran != 1 {
		t.Fatalf("ran %d handlers, want 1 (one stopped)", ran)
	}
	if c.Now() != 5 {
		t.Fatalf("clock at %v, want 5", c.Now())
	}
}

// TestWallClockScheduleAndCancel exercises the live clock end to end:
// handlers fire on real time and run serialized, and a timer stopped from
// the test goroutine never fires.
func TestWallClockScheduleAndCancel(t *testing.T) {
	c := NewWallClock()
	defer c.Stop()

	fired := make(chan int, 16)
	c.Schedule(1, func() { fired <- 1 })
	w := c.Timer(func() { fired <- 2 })
	w.Reset(500)

	select {
	case got := <-fired:
		if got != 1 {
			t.Fatalf("first firing was handler %d", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wall timer never fired")
	}
	if !w.Stop() {
		t.Fatal("Stop of a far-future wall timer reported false")
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
	select {
	case got := <-fired:
		t.Fatalf("handler %d ran after its timer stopped", got)
	default:
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

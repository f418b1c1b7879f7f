package event

import (
	"sync"
	"time"
)

// Timer is a re-armable timer, made stopped by Clock.Timer or NewTimer.
type Timer interface {
	// Reset arms the timer d milliseconds out, in place of any pending
	// firing; a non-positive d fires as soon as the clock can.
	Reset(d Time)
	// Stop prevents the pending firing, with time.Timer.Stop's meaning:
	// false if the timer fired (its handler may be yet to run) or was idle.
	Stop() bool
}

// NewTimer returns c.Timer(f), or, for a nil c, a stopped wall timer that
// runs f on a goroutine of its own each time it fires.
func NewTimer(c Clock, f func()) Timer {
	if c != nil {
		return c.Timer(f)
	}
	return (*WallClock)(nil).Timer(f)
}

// Clock is the scheduling seam between the PROP protocols and their
// environment. The discrete-event Engine implements it on simulated time;
// WallClock implements it on real time with a serializing run loop. Protocol
// code written against Clock (internal/core's probe cycles, internal/propnode's
// agents, internal/transport's call deadlines) runs unchanged on either — the
// decoupling that turns the simulator into a runtime (DESIGN.md §10).
type Clock interface {
	// Now returns the current time in milliseconds.
	Now() Time
	// Schedule runs f once, d milliseconds from now. Implementations run
	// handlers one at a time, so scheduled code needs no locking against
	// other handlers on the same clock. The event cannot be cancelled; a
	// Timer can.
	Schedule(d Time, f func())
	// Timer returns a stopped Timer that runs f, as Schedule runs its
	// handlers, each time it fires.
	Timer(f func()) Timer
}

// WallClock is the live implementation of Clock: timers fire on real time
// and handlers execute on a single runner goroutine, preserving the
// engine's handlers-never-overlap guarantee. Schedule, Timer and the timers'
// methods are safe from any goroutine.
type WallClock struct {
	start    time.Time
	fire     chan func()
	quit     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// NewWallClock starts a wall clock with its runner goroutine. Call Stop when
// done.
func NewWallClock() *WallClock {
	c := &WallClock{
		start: time.Now(),
		fire:  make(chan func(), 128),
		quit:  make(chan struct{}),
	}
	c.done.Add(1)
	go c.run()
	return c
}

func (c *WallClock) run() {
	defer c.done.Done()
	for {
		select {
		case f := <-c.fire:
			f()
		case <-c.quit:
			return
		}
	}
}

// Now returns milliseconds of real time since the clock was created.
func (c *WallClock) Now() Time {
	return Time(float64(time.Since(c.start)) / float64(time.Millisecond))
}

// Schedule runs f after d milliseconds of real time on the runner goroutine.
// Unlike the engine — where scheduling in the past is a protocol bug — a
// non-positive delay fires as soon as the runner is free: wall time advances
// between computing a deadline and scheduling it, so "already due" is an
// environmental condition here. It is a Timer armed once.
func (c *WallClock) Schedule(d Time, f func()) { c.Timer(f).Reset(d) }

// Timer returns a stopped timer that runs f on the runner goroutine each time
// it fires; Reset arms it. It is made once: neither Reset nor a firing
// allocates.
func (c *WallClock) Timer(f func()) Timer {
	if f == nil {
		panic("event: nil handler")
	}
	w := &wallTimer{c: c, f: f}
	w.t = time.AfterFunc(time.Hour, w.fire)
	w.t.Stop()
	return w
}

// Stop terminates the runner goroutine. Timers that fire afterwards are
// dropped. Stop is idempotent and waits for the runner to exit, so no
// handler is mid-flight when it returns.
func (c *WallClock) Stop() {
	c.stopOnce.Do(func() { close(c.quit) })
	c.done.Wait()
}

// wallTimer is a re-armable timer on a WallClock. A firing only hands f to
// the runner, which runs it (or, with no clock, runs it on the firing's
// goroutine); once the clock is stopped, a firing is dropped. Reset and Stop
// are safe from any goroutine.
type wallTimer struct {
	c *WallClock
	f func()
	t *time.Timer
}

func (w *wallTimer) fire() {
	if w.c == nil {
		w.f()
		return
	}
	select {
	case w.c.fire <- w.f:
	case <-w.c.quit:
	}
}

// Reset arms w to fire d milliseconds from now, in place of any firing still
// pending; a non-positive d fires as soon as the runner is free, and one past
// the longest time.Duration (≈ 9.2e12 ms) after 9e12 ms.
func (w *wallTimer) Reset(d Time) {
	w.t.Reset(time.Duration(min(max(float64(d), 0), 9e12) * float64(time.Millisecond)))
}

// Stop prevents w's pending firing, with time.Timer.Stop's meaning: false if
// w already fired — its handler may be yet to run — or was not armed.
func (w *wallTimer) Stop() bool { return w.t.Stop() }

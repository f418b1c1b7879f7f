// Package event implements the discrete-event simulation engine that drives
// the PROP protocols: node timers, probes, exchanges, lookups, and churn are
// all events on a single simulated clock measured in milliseconds.
//
// The engine is deliberately sequential — a P2P protocol simulation needs a
// total order on events to be reproducible — while the experiment harness
// achieves parallelism by running many independent engines (one per trial
// seed) concurrently.
//
// Key types: Engine, Time (simulated milliseconds), and Timer (a
// re-armable timer, the only cancellable event). See DESIGN.md §1 for the
// engine's place in the stack; observability series are stamped with this
// clock (DESIGN.md §8).
package event

import (
	"fmt"
	"math"
)

// Time is simulated time in milliseconds since the start of the run.
type Time float64

// Handler is the body of a scheduled event. It runs with the engine clock
// set to the event's due time and may schedule further events.
type Handler func(e *Engine)

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	// Observer, if non-nil, is invoked immediately before every executed
	// event with the event's due time and scheduling sequence number. It is
	// the hook the online auditor (internal/audit) uses to verify the
	// engine's own invariants — a monotonically non-decreasing clock and
	// FIFO ordering among equal-time events — without the engine depending
	// on the auditor. Chain, don't replace, an existing observer.
	Observer func(at Time, seq uint64)

	now   Time
	queue queue
	free  []*item // fired one-shot items, reused by the next At or Schedule
	seq   uint64  // tie-breaker: FIFO among equal-time events
	steps uint64
}

// New returns an empty engine with the clock at 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// At schedules h to run at absolute time t. Scheduling in the past (before
// Now) panics: it indicates a protocol bug, not an environmental condition.
// The event cannot be cancelled; a Timer can.
func (e *Engine) At(t Time, h Handler) {
	if h == nil {
		panic("event: nil handler")
	}
	ev := e.oneShot()
	ev.h = h
	e.push(t, ev)
}

// After schedules h to run delay milliseconds from now. Negative delays
// panic.
func (e *Engine) After(delay Time, h Handler) { e.At(e.now+delay, h) }

// Schedule implements the Clock interface: it runs f d milliseconds from
// now. The engine is one Clock among several (see WallClock); protocol code
// written against Clock runs unchanged on simulated or wall time.
func (e *Engine) Schedule(d Time, f func()) {
	if f == nil {
		panic("event: nil handler")
	}
	ev := e.oneShot()
	ev.f = f
	e.push(e.now+d, ev)
}

// oneShot returns a recycled item, or a new one while the free list is
// empty: in steady state scheduling allocates nothing.
func (e *Engine) oneShot() *item {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &item{index: -1, recycle: true}
}

// push stamps ev with its due time and the next FIFO sequence number and
// queues it, or, if it is queued already, moves it to its new place.
func (e *Engine) push(t Time, ev *item) {
	if !(t >= e.now) { // also refuses NaN, which would corrupt the heap order
		panic(fmt.Sprintf("event: scheduling at %v, not at or after now %v", t, e.now))
	}
	ev.at, ev.seq = t, e.seq
	e.seq++
	if ev.index < 0 {
		e.queue.push(ev)
	} else {
		e.queue.fix(int(ev.index))
	}
}

// Step executes the single earliest pending event and reports whether one
// existed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	if e.Observer != nil {
		e.Observer(ev.at, ev.seq)
	}
	e.now = ev.at
	e.steps++
	h, f := ev.h, ev.f
	if ev.recycle { // before the handler runs, so what it schedules reuses ev
		ev.h, ev.f = nil, nil
		e.free = append(e.free, ev)
	}
	if f != nil {
		f()
	} else {
		h(e)
	}
	return true
}

// RunUntil executes events in order until the clock would pass deadline or
// the queue drains. Events scheduled exactly at the deadline run. On return
// the clock is advanced to the deadline (even if the queue drained earlier)
// so that periodic measurement loops observe uniform time. A NaN deadline
// panics.
func (e *Engine) RunUntil(deadline Time) {
	if math.IsNaN(float64(deadline)) { // no event would ever be past it
		panic("event: RunUntil at NaN")
	}
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Timer implements the Clock interface: a stopped timer that runs f on the
// engine each time it fires. The timer owns one queue item for its life:
// Reset re-keys it in place and Stop takes it out, so neither allocates.
func (e *Engine) Timer(f func()) Timer {
	if f == nil {
		panic("event: nil handler")
	}
	return &engineTimer{item: item{f: f, index: -1}, e: e}
}

// engineTimer is a re-armable timer on an Engine, queued while armed.
type engineTimer struct {
	item
	e *Engine
}

// Reset arms t max(d, 0) from now with a fresh sequence number, as if its
// pending firing were cancelled and a new event scheduled.
func (t *engineTimer) Reset(d Time) { t.e.push(t.e.now+max(d, 0), &t.item) }

func (t *engineTimer) Stop() bool {
	if t.index < 0 {
		return false
	}
	t.e.queue.remove(int(t.index))
	return true
}

// item is one queued event, keyed by (at, seq); index is its heap slot, -1
// while it is not queued.
type item struct {
	at      Time
	seq     uint64
	h       Handler // set by At/After
	f       func()  // set by Schedule and Timer; exactly one of h and f is non-nil
	index   int32
	recycle bool // a one-shot: back to the free list once it fires
}

func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// queue is a binary min-heap of items ordered by (at, seq).
type queue []*item

func (q *queue) push(ev *item) {
	ev.index = int32(len(*q))
	*q = append(*q, ev)
	q.up(int(ev.index))
}

func (q *queue) pop() *item {
	ev := (*q)[0]
	q.remove(0)
	return ev
}

// remove takes out the item at slot i.
func (q *queue) remove(i int) {
	h := *q
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = int32(i)
	}
	h[n] = nil
	*q = h[:n]
	if i != n {
		q.fix(i)
	}
	ev.index = -1
}

// fix restores the heap order after the key at slot i changed.
func (q queue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q queue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

// down sifts slot i toward the leaves and reports whether it moved.
func (q queue) down(i int) bool {
	start := i
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(q[i]) {
			break
		}
		q.swap(i, c)
		i = c
	}
	return i > start
}

func (q queue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = int32(i), int32(j)
}

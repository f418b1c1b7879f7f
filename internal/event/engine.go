// Package event implements the discrete-event simulation engine that drives
// the PROP protocols: node timers, probes, exchanges, lookups, and churn are
// all events on a single simulated clock measured in milliseconds.
//
// The engine is deliberately sequential — a P2P protocol simulation needs a
// total order on events to be reproducible — while the experiment harness
// achieves parallelism by running many independent engines (one per trial
// seed) concurrently.
//
// Key types: Engine, Time (simulated milliseconds), and Token (handle for
// cancellation). See DESIGN.md §1 for the engine's place in the stack;
// observability series are stamped with this clock (DESIGN.md §8).
package event

import (
	"container/heap"
	"fmt"
	"math"
	"sync/atomic"
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
	queue eventHeap
	seq   uint64 // tie-breaker: FIFO among equal-time events
	steps uint64
}

// New returns an empty engine with the clock at 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending reports how many events are scheduled but not yet executed.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules h to run at absolute time t. Scheduling in the past (before
// Now) panics: it indicates a protocol bug, not an environmental condition.
// It returns a token that can cancel the event.
func (e *Engine) At(t Time, h Handler) *Token {
	if h == nil {
		panic("event: nil handler")
	}
	return e.push(t, &item{h: h})
}

// push stamps ev with its due time and FIFO sequence number and queues it.
// The token lives inside the item, so scheduling is one allocation.
func (e *Engine) push(t Time, ev *item) *Token {
	if !(t >= e.now) { // also refuses NaN, which would corrupt the heap order
		panic(fmt.Sprintf("event: scheduling at %v, not at or after now %v", t, e.now))
	}
	ev.at, ev.seq, ev.tok.item = t, e.seq, ev
	e.seq++
	heap.Push(&e.queue, ev)
	return &ev.tok
}

// After schedules h to run delay milliseconds from now. Negative delays
// panic.
func (e *Engine) After(delay Time, h Handler) *Token {
	return e.At(e.now+delay, h)
}

// Step executes the single earliest pending event and reports whether one
// existed.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*item)
		// Claiming the event (pending → done) and cancelling race only when
		// a live driver cancels tokens from another goroutine; the CAS makes
		// that race well-defined — exactly one side wins.
		if !ev.state.CompareAndSwap(statePending, stateDone) {
			continue
		}
		if e.Observer != nil {
			e.Observer(ev.at, ev.seq)
		}
		e.now = ev.at
		e.steps++
		if ev.f != nil {
			ev.f()
		} else {
			ev.h(e)
		}
		return true
	}
	return false
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
	for len(e.queue) > 0 {
		next := e.peek()
		if next == nil {
			break
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes events until the queue is empty or maxSteps events have run
// (a safety valve against runaway schedules; pass 0 for no limit). It
// returns the number of events executed.
func (e *Engine) Run(maxSteps uint64) uint64 {
	var n uint64
	for {
		if maxSteps > 0 && n >= maxSteps {
			return n
		}
		if !e.Step() {
			return n
		}
		n++
	}
}

func (e *Engine) peek() *item {
	for len(e.queue) > 0 {
		if e.queue[0].state.Load() == statePending {
			return e.queue[0]
		}
		heap.Pop(&e.queue)
	}
	return nil
}

// Schedule implements the Clock interface: it runs f d milliseconds from
// now. The engine is one Clock among several (see WallClock); protocol code
// written against Clock runs unchanged on simulated or wall time.
func (e *Engine) Schedule(d Time, f func()) Canceler {
	if f == nil {
		panic("event: nil handler")
	}
	return e.push(e.now+d, &item{f: f})
}

// Token cancels a scheduled event. Cancel and Pending are safe to call from
// any goroutine — the live runtime cancels sim-style tokens from transport
// goroutines — though the engine itself must still be stepped from a single
// goroutine.
type Token struct{ item *item }

// Cancel marks the event as cancelled; it will be skipped when its time
// comes. It reports whether the call actually prevented a pending event:
// false means the event had already executed or been cancelled, which is
// precisely the stale-timer race — a retransmit timer whose response arrived
// in the same tick — so callers can count it (metrics.Counters.StaleTimers)
// instead of silently double-cancelling. Concurrent Cancel calls on the same
// token resolve atomically: exactly one reports true for a pending event.
func (t *Token) Cancel() bool {
	if t == nil || t.item == nil {
		return false
	}
	return t.item.state.CompareAndSwap(statePending, stateCancelled)
}

// Pending reports whether the event is still scheduled: not yet executed and
// not cancelled. Timer handlers use this for stale-fire guards — a handler
// that captured its own token can tell whether it is the current incarnation
// of the timer.
func (t *Token) Pending() bool {
	return t != nil && t.item != nil && t.item.state.Load() == statePending
}

// Timer lifecycle states shared by the engine's Token and the WallClock's
// timers: pending → done (fired) or pending → cancelled, decided by CAS so
// that a handler firing and a cross-goroutine Cancel never both win.
const (
	statePending int32 = iota
	stateDone
	stateCancelled
)

type item struct {
	at    Time
	seq   uint64
	h     Handler // set by At/After
	f     func()  // set by Schedule; exactly one of h and f is non-nil
	state atomic.Int32
	tok   Token
}

type eventHeap []*item

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*item)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

//go:build !race

package event

// Allocation gate for the live clock's timers. The race detector's
// instrumentation allocates behind the scenes, so the pin only means
// something without it.

import "testing"

// TestWallTimerAllocations pins a warm re-armable timer's Reset and firing
// — the hand-off to the runner and the handler's run there — at 0 heap
// allocations.
func TestWallTimerAllocations(t *testing.T) {
	c := NewWallClock()
	defer c.Stop()
	ran := make(chan struct{}, 1)
	w := c.Timer(func() { ran <- struct{}{} })
	fire := func() {
		w.Reset(0)
		<-ran
	}
	fire()
	if got := testing.AllocsPerRun(200, fire); got != 0 {
		t.Fatalf("Reset + firing allocate %v times, want 0", got)
	}
}

// TestEngineTimerAllocations pins a warm engine timer's Reset and firing at
// 0 heap allocations: the timer owns its queue item and re-keys it in place.
func TestEngineTimerAllocations(t *testing.T) {
	e := New()
	e.At(1e9, func(*Engine) {}) // a second queued item, so Reset and Step sift
	var w Timer
	w = e.Timer(func() { w.Reset(10) })
	w.Reset(10)
	step := func() {
		w.Reset(1) // re-keyed in place while queued
		e.Step()   // fires; its handler re-arms it
	}
	step()
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Fatalf("Reset + firing allocate %v times, want 0", got)
	}
}

// TestEngineOneShotAllocations pins a warm At with a prebuilt handler and
// its firing at 0 heap allocations: a fired one-shot's item is reused.
func TestEngineOneShotAllocations(t *testing.T) {
	e := New()
	h := func(*Engine) {}
	fire := func() {
		e.At(e.Now()+1, h)
		e.Step()
	}
	fire()
	if got := testing.AllocsPerRun(200, fire); got != 0 {
		t.Fatalf("At + firing allocate %v times, want 0", got)
	}
}

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

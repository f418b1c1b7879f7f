//go:build !race

package shard

// The event queue's allocation gate. The race detector's instrumentation
// allocates behind the scenes, so an exact pin only means something
// without it.

import "testing"

// TestQueueCycleAllocatesNothing pins the warm event queue at zero
// allocations: 1024 probe timers a minute apart, each firing re-armed a
// minute later with a walk sent 100 ms out, so near heap, ring, chunks and
// slab all reach their steady size in the warm-up.
func TestQueueCycleAllocatesNothing(t *testing.T) {
	var q msgQueue
	for i := int32(0); i < 1024; i++ {
		q.push(msg{at: float64(58 * i), origin: i, from: i, to: i, kind: kProbe})
	}
	cycle := func() {
		q.next()
		m := q.pop()
		q.advance(m.at)
		if m.kind == kProbe {
			m.oseq++
			q.push(msg{at: m.at + 100, origin: m.origin, oseq: m.oseq, from: m.origin, to: m.origin + 1, kind: kWalk})
			m.at += probeIntervalMS
			m.oseq++
			q.push(m)
		}
	}
	for i := 0; i < 3*2048; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(2000, cycle); n != 0 {
		t.Fatalf("%v allocations per warm push/pop/advance cycle, want 0", n)
	}
}

//go:build !race

package overlay

// Allocation gates for the flood queries. The race detector's
// instrumentation allocates behind the scenes (and empties sync.Pools at
// random), so exact pins only mean something without it.

import (
	"testing"

	"repro/internal/rng"
)

// TestFloodQueriesAllocationFree: once the scratch and the view's arrays
// exist, a flood allocates nothing — not a warm FloodLatency, not the view
// rebuild a host swap forces on the next flood, not FloodLatencyAny's target
// set, not a full row. Nor does a fixed batch of 200 mixed queries once it
// has run: the queue's arena holds a flood's frontier, not its history, so it
// stops growing once it has held the widest frontier of the batch. The same
// holds on an order-free overlay, where point queries run floodPoint on the
// scratch's second distance array and queue and a swap recomputes the gate.
func TestFloodQueriesAllocationFree(t *testing.T) {
	o := randomFloodOverlay(t, rng.New(9), 128, 256)
	n := o.NumSlots()
	dsts := []int{17, 90, 41}
	row := make([]float64, n)
	batch := func() {
		for i := 0; i < 200; i++ {
			src, dst := (i*37)%n, (i*53+11)%n
			switch i % 4 {
			case 0:
				o.FloodLatency(src, dst, testProc)
			case 1:
				o.FloodLatencyAny(src, dsts, nil)
			case 2:
				o.FloodLatenciesInto(src, testProc, row)
			case 3:
				// Steps 8k+3 and 8k+7 swap the same pair, so the batch leaves
				// the overlay as it found it and is the same batch every time.
				k := i / 8
				o.SwapHosts((k*37)%n, (k*53+11)%n)
			}
		}
	}
	pin := func(name string, f func()) {
		t.Helper()
		if a := testing.AllocsPerRun(100, f); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, a)
		}
	}
	batch() // first build, first scratch, widest frontier
	pin("warm FloodLatency", func() { o.FloodLatency(3, 77, testProc) })
	pin("rebuild after SwapHosts", func() { o.SwapHosts(5, 6); o.FloodLatency(3, 77, nil) })
	pin("FloodLatencyAny", func() { o.FloodLatencyAny(3, dsts, nil) })
	pin("warm FloodLatenciesInto", func() { o.FloodLatenciesInto(3, testProc, row) })
	pin("batch of 200 mixed queries", batch)

	o.lat = quantLat
	o.SwapHosts(5, 6) // the view is stale: the next flood rebuilds it under quantLat
	pointBatch := func() {
		for i := 0; i < 200; i++ {
			if i%8 == 3 || i%8 == 7 { // the same pair twice, as above
				k := i / 8
				o.SwapHosts((k*37)%n, (k*53+11)%n)
			}
			o.FloodLatency((i*37)%n, (i*53+11)%n, nil)
		}
	}
	pointBatch()
	if !viewOrderFree(o) {
		t.Fatal("quantLat view not order-free: the pins below would not reach floodPoint")
	}
	pin("order-free view, warm FloodLatency", func() { o.FloodLatency(3, 77, nil) })
	pin("order-free view, batch of 200 point queries", pointBatch)
}

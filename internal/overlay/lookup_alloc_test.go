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
// rebuild a host swap forces on the next flood, not a full row. Nor does a fixed batch of 200 mixed queries once it
// has run: the queue's arena holds a flood's frontier, not its history, so it
// stops growing once it has held the widest frontier of the batch. The same
// holds on an order-free overlay, where point queries run floodPoint on the
// scratch's second distance array and queue and a swap recomputes the gate.
func TestFloodQueriesAllocationFree(t *testing.T) {
	o := randomFloodOverlay(t, rng.New(9), 128, 256)
	n := o.NumSlots()
	row := make([]float64, n)
	batch := func() {
		for i := 0; i < 200; i++ {
			src, dst := (i*37)%n, (i*53+11)%n
			switch i % 4 {
			case 0:
				o.FloodLatency(src, dst, testDelays)
			case 1:
				o.FloodLatency(src, dst, nil)
			case 2:
				o.FloodLatenciesInto(src, row)
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
	pin("warm FloodLatency", func() { o.FloodLatency(3, 77, testDelays) })
	pin("rebuild after SwapHosts", func() { o.SwapHosts(5, 6); o.FloodLatency(3, 77, nil) })
	pin("warm FloodLatenciesInto", func() { o.FloodLatenciesInto(3, row) })
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

// TestFloodMemoAllocationFree: once a FloodMemo has learnt its lookups, a
// sample allocates nothing — not one of an unchanged state, not the first
// call after a swap, which certifies the entries and runs the rows, nor the
// floods of the lookups the swap moved. (AllocsPerRun runs at GOMAXPROCS 1,
// so the rows run on the calling goroutine.)
func TestFloodMemoAllocationFree(t *testing.T) {
	o := randomFloodOverlay(t, rng.New(9), 128, 256)
	o.lat = quantLat
	n := o.NumSlots()
	m := NewFloodMemo(o)
	sample := func() {
		for i := 0; i < 200; i++ {
			m.Latency((i*37)%n, (i*53+11)%n)
		}
	}
	sample() // learns the keys
	o.SwapHosts(5, 6)
	sample() // the entries and their paths
	o.SwapHosts(5, 6)
	sample()
	rows := m.rows
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"unchanged state", sample},
		{"after a swap", func() { o.SwapHosts(5, 6); sample() }},
	} {
		if a := testing.AllocsPerRun(50, c.f); a != 0 {
			t.Errorf("FloodMemo sample, %s: %v allocs, want 0", c.name, a)
		}
	}
	if m.rows == rows {
		t.Fatal("no sample ran a row: the pin above missed certify")
	}
}

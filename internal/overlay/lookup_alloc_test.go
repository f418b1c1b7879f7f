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
// set.
func TestFloodQueriesAllocationFree(t *testing.T) {
	o := randomFloodOverlay(t, rng.New(9), 128, 256)
	dsts := []int{17, 90, 41}
	o.FloodLatency(0, 64, testProc) // first build, first scratch
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"warm FloodLatency", func() { o.FloodLatency(3, 77, testProc) }},
		{"rebuild after SwapHosts", func() { o.SwapHosts(5, 6); o.FloodLatency(3, 77, nil) }},
		{"FloodLatencyAny", func() { o.FloodLatencyAny(3, dsts, nil) }},
	} {
		if a := testing.AllocsPerRun(100, tc.f); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, a)
		}
	}
}

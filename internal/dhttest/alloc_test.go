//go:build !race

package dhttest_test

// Allocation pin for routed lookups. The race detector's instrumentation
// allocates behind the scenes, so the exact pin only means something
// without it.

import (
	"testing"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// TestWarmLookupAllocationFree: a Chord lookup or a CAN route runs
// overlay.Route with a stack closure over its next-hop rule (CAN's visited
// zones in a stack buffer) and returns the result by value, so a warm
// lookup allocates nothing.
func TestWarmLookupAllocationFree(t *testing.T) {
	const n = 512
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i * 7
	}
	lat := func(a, b int) float64 { return float64(max(a-b, b-a)) }
	ring, err := chord.Build(hosts, chord.DefaultConfig(), lat, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := can.Build(hosts, can.Config{}, lat, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for name, lookup := range map[string]func(src int, r *rng.Rand) (overlay.LookupResult, error){
		"chord": func(src int, r *rng.Rand) (overlay.LookupResult, error) {
			return ring.Lookup(src, chord.RandomKey(r))
		},
		"can": func(src int, r *rng.Rand) (overlay.LookupResult, error) {
			return sp.Route(src, can.RandomPoint(r))
		},
	} {
		r := rng.New(4)
		hops := 0
		allocs := testing.AllocsPerRun(100, func() {
			res, err := lookup(r.Intn(n), r)
			if err != nil {
				t.Fatal(err)
			}
			hops += res.Hops
		})
		if allocs != 0 {
			t.Errorf("%s: warm lookup allocates %v times, want 0", name, allocs)
		}
		if hops == 0 {
			t.Errorf("%s: no lookup left its source", name)
		}
	}
}

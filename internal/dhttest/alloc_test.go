//go:build !race

package dhttest_test

// Allocation pin for routed lookups. The race detector's instrumentation
// allocates behind the scenes, so the exact pin only means something
// without it.

import (
	"testing"

	"repro/internal/chord"
	"repro/internal/kademlia"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// TestWarmLookupAllocationFree: a Chord or Kademlia lookup runs
// overlay.Route with a stack closure over its next-hop rule and returns the
// result by value, so a warm lookup allocates nothing.
func TestWarmLookupAllocationFree(t *testing.T) {
	const n = 512
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i * 7
	}
	lat := func(a, b int) float64 { return float64(max(a-b, b-a)) }
	type looker interface {
		Lookup(src int, key uint32, proc overlay.ProcDelayFunc) (overlay.LookupResult, error)
	}
	ring, err := chord.Build(hosts, chord.DefaultConfig(), lat, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	net, err := kademlia.Build(hosts, kademlia.Config{}, lat, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]looker{"chord": ring, "kademlia": net} {
		r := rng.New(4)
		hops := 0
		allocs := testing.AllocsPerRun(100, func() {
			res, err := d.Lookup(r.Intn(n), uint32(r.Uint64()), nil)
			if err != nil {
				t.Fatal(err)
			}
			hops += res.Hops
		})
		if allocs != 0 {
			t.Errorf("%s: warm Lookup allocates %v times, want 0", name, allocs)
		}
		if hops == 0 {
			t.Errorf("%s: no lookup left its source", name)
		}
	}
}

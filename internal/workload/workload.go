// Package workload generates the lookup workloads of the paper's
// evaluation: uniform source/destination pairs for the Fig. 5/6 latency
// samples, and the fast-node-skewed destination mix of Fig. 7 ("we simulate
// this phenomenon by increasing the fraction of lookups whose destination
// is a fast node").
//
// Key type: Lookup; generators Uniform (Figs. 5/6) and Skewed (Fig. 7).
// See DESIGN.md §2.
package workload

import (
	"fmt"

	"repro/internal/rng"
)

// Lookup is one query: a source slot asking for content held by a
// destination slot.
type Lookup struct {
	Src, Dst int
}

// Uniform draws count lookups with source and destination chosen uniformly
// from slots, never equal. It needs at least two slots.
func Uniform(slots []int, count int, r *rng.Rand) ([]Lookup, error) {
	if len(slots) < 2 {
		return nil, fmt.Errorf("workload: need >= 2 slots, got %d", len(slots))
	}
	if count < 0 {
		return nil, fmt.Errorf("workload: negative count %d", count)
	}
	out := make([]Lookup, count)
	for i := range out {
		src := slots[r.Intn(len(slots))]
		dst := slots[r.Intn(len(slots))]
		for dst == src {
			dst = slots[r.Intn(len(slots))]
		}
		out[i] = Lookup{Src: src, Dst: dst}
	}
	return out, nil
}

// Skewed draws count lookups whose destination is a fast slot with
// probability fastFraction and a slow slot otherwise; sources are uniform
// over all slots. Either class may be empty only if its probability is 0.
func Skewed(all, fast, slow []int, fastFraction float64, count int, r *rng.Rand) ([]Lookup, error) {
	if len(all) < 2 {
		return nil, fmt.Errorf("workload: need >= 2 slots, got %d", len(all))
	}
	if !(fastFraction >= 0 && fastFraction <= 1) { // NaN fails both
		return nil, fmt.Errorf("workload: fastFraction %v out of [0,1]", fastFraction)
	}
	if count < 0 {
		return nil, fmt.Errorf("workload: negative count %d", count)
	}
	if fastFraction > 0 && len(fast) == 0 {
		return nil, fmt.Errorf("workload: fastFraction %v but no fast slots", fastFraction)
	}
	if fastFraction < 1 && len(slow) == 0 {
		return nil, fmt.Errorf("workload: fastFraction %v but no slow slots", fastFraction)
	}
	out := make([]Lookup, count)
	for i := range out {
		var pool []int
		if r.Bool(fastFraction) {
			pool = fast
		} else {
			pool = slow
		}
		dst := pool[r.Intn(len(pool))]
		src := all[r.Intn(len(all))]
		for src == dst {
			src = all[r.Intn(len(all))]
		}
		out[i] = Lookup{Src: src, Dst: dst}
	}
	return out, nil
}

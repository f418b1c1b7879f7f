// Package hetero models node heterogeneity for the paper's Fig. 7
// experiment: a bimodal processing-delay distribution with a minority of
// fast nodes and a majority of slow ones ("the overall setting is similar
// to that in [Dabek et al.]").
//
// Speed is a property of the physical machine — the *host* — not of the
// overlay position. That distinction is load-bearing: PROP-G exchanges move
// hosts between overlay slots, so a fast machine can migrate out of its
// well-connected position, while PROP-O preserves each machine's degree.
// Fig. 7's crossover between the policies is exactly this effect.
//
// The paper observes that in real systems powerful peers both serve more
// lookups and hold more connections; AssignByDegree therefore marks the
// machines currently backing the highest-degree slots as fast (matching the
// preferential-attachment overlays, where early joiners are hubs).
//
// The population is fixed at the Fig. 7 setting: 20% of the machines are
// fast (1 ms per lookup hop), the rest slow (100 ms).
//
// Key type: Model (a processing delay per host). See DESIGN.md §1 and the
// Fig. 7 row of §2.
package hetero

import (
	"slices"
	"sort"

	"repro/internal/overlay"
)

const (
	// fastDelayMS is the processing delay of fast machines (paper: 1 ms).
	fastDelayMS = 1.0
	// slowDelayMS is the processing delay of slow machines (reconstructed:
	// 100 ms; the OCR lost the digit — see DESIGN.md §4).
	slowDelayMS = 100.0
	// fastFraction is the fraction of machines that are fast
	// (reconstructed: 0.20).
	fastFraction = 0.20
)

// Model assigns processing delays to the machines of one overlay.
type Model struct {
	// DelayByHost is each machine's processing delay in milliseconds,
	// indexed by host: the delay slice overlay.FloodLatency and
	// metrics.FloodEval read. Hosts that backed no live slot at assignment
	// read 0.
	DelayByHost []float64
	// FastHosts lists the fast machines in ascending order.
	FastHosts []int
}

// fastCount returns ceil(frac·n).
func fastCount(frac float64, n int) int {
	k := int(float64(frac*float64(n)) + 0.999999)
	if k > n {
		k = n
	}
	return k
}

// AssignByDegree marks the machines backing the ceil(fastFraction·n)
// highest-degree slots of o as fast — the "powerful nodes own more
// connections" coupling Fig. 7 leans on. The assignment is by host, so
// later host swaps (PROP-G) carry the speed with the machine.
func AssignByDegree(o *overlay.Overlay) *Model {
	slots := o.AliveSlots()
	sort.Slice(slots, func(i, j int) bool {
		di, dj := o.Degree(slots[i]), o.Degree(slots[j])
		if di != dj {
			return di > dj
		}
		return slots[i] < slots[j]
	})
	m := &Model{DelayByHost: make([]float64, slices.Max(append(o.Hosts(), -1))+1)}
	k := fastCount(fastFraction, len(slots))
	for i, s := range slots {
		h := o.HostOf(s)
		m.DelayByHost[h] = slowDelayMS
		if i < k {
			m.DelayByHost[h] = fastDelayMS
			m.FastHosts = append(m.FastHosts, h)
		}
	}
	slices.Sort(m.FastHosts)
	return m
}

// Package ltm implements the paper's main unstructured-overlay baseline:
// Location-aware Topology Matching (Liu, Xiao, Liu, Ni, Zhang — IEEE TPDS
// 2005). Each peer periodically floods a TTL-2 detector; from the collected
// delay information it (a) cuts its most inefficient redundant logical
// links — direct links that a two-hop path undercuts — and (b) adds the
// closest two-hop peer as a new direct neighbor.
//
// LTM is "only applicable for Gnutella-like overlay networks where each
// peer can freely cut and add connections", and its free rewiring does NOT
// preserve node degrees — the exact property the paper contrasts PROP-O
// against in Fig. 7.
//
// The parameters are fixed at the common LTM evaluation setup: one detector
// round per peer per minute (PROP's INIT_TIMER), cuts and adds bounded per
// round, and no cut below degree 3.
//
// Key type: Protocol. See DESIGN.md §4 for the baseline
// reconstruction and §2 for the Fig. 7 comparison.
package ltm

import (
	"sort"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// The detector schedule mirrors the common LTM evaluation setup: each
// round cuts every redundant link it finds (up to maxCutsPerRound) but adds
// at most maxAddsPerRound shortcuts, and a round with no cut adds only the
// single closest one — LTM's "cut most of the inefficient and redundant
// logical links". The asymmetry is what erodes high-degree peers, the
// behavior the PROP paper criticizes ("free modification of connections …
// impairs the natural feature of self-organizing overlay where powerful,
// reliable nodes … inherently have more connections").
const (
	// periodMS is the detector flooding period per peer (aligned with
	// PROP's INIT_TIMER so overhead/latency comparisons are like-for-like).
	periodMS = 60000.0
	// minDegree is the floor below which a peer refuses to cut links
	// (LTM's "will not cut if it would leave the peer poorly connected").
	minDegree = 3
	// maxCutsPerRound bounds how many redundant links one detector round
	// may cut.
	maxCutsPerRound = 10
	// maxAddsPerRound bounds how many shortcut links one round may add.
	maxAddsPerRound = 5
)

// RewireEvent records one executed LTM link modification for tracing: a
// redundant-link cut or a shortcut add.
type RewireEvent struct {
	At    event.Time
	U, W  int
	Added bool // true for a shortcut add, false for a cut
}

// Protocol runs LTM over one overlay inside one event engine.
type Protocol struct {
	// O is the overlay being optimized.
	O *overlay.Overlay
	// Counters tallies detector message overhead.
	Counters metrics.Counters
	// Trace, if non-nil, receives every executed link cut and add.
	Trace func(RewireEvent)

	r *rng.Rand
}

// New creates an LTM instance over o.
func New(o *overlay.Overlay, r *rng.Rand) *Protocol {
	return &Protocol{O: o, r: r}
}

// Start schedules every live peer's detector loop, staggered over one
// period.
func (p *Protocol) Start(e *event.Engine) {
	for _, slot := range p.O.AliveSlots() {
		slot := slot
		delay := event.Time(p.r.Float64() * periodMS)
		e.After(delay, func(en *event.Engine) { p.round(en, slot) })
	}
}

// round is one TTL-2 detector flood plus the cut/add reaction for peer u.
func (p *Protocol) round(e *event.Engine, u int) {
	if !p.O.Alive(u) {
		return
	}
	p.Counters.Probes++

	// Detector flood cost: one message per direct neighbor, then one per
	// two-hop forwarding (TTL 2).
	nbrs := p.O.Neighbors(u)
	p.Counters.WalkMessages += uint64(len(nbrs))
	// For every peer w reachable in two hops (via v), record the best
	// triangle bound: min over v of max(d(u,v), d(v,w)). A direct link u-w
	// is "inefficient and redundant" when it is the longest edge of such a
	// triangle — the two-hop path keeps the pair connected at no greater
	// per-edge delay, so LTM cuts the long direct edge. (Cutting on
	// d(u,v)+d(v,w) < d(u,w) would never fire: shortest-path latencies obey
	// the triangle inequality.)
	triBound := make(map[int]float64)
	for _, v := range nbrs {
		vn := p.O.Neighbors(v)
		p.Counters.WalkMessages += uint64(len(vn))
		duv := p.O.Dist(u, v)
		for _, w := range vn {
			if w == u || !p.O.Alive(w) {
				continue
			}
			bound := duv
			if dvw := p.O.Dist(v, w); dvw > bound {
				bound = dvw
			}
			if best, ok := triBound[w]; !ok || bound < best {
				triBound[w] = bound
			}
		}
	}

	cut := p.cutRedundant(e.Now(), u, nbrs, triBound)
	// Replace what was cut with the closest two-hop peers. The cutter stays
	// at roughly constant degree, but the far endpoints of the cut links —
	// disproportionately the hubs, whose many long-range links are exactly
	// the "inefficient" ones — are never compensated. That one-sidedness is
	// the hub erosion the PROP paper criticizes LTM for.
	adds := cut
	if adds == 0 {
		adds = 1 // bootstrap: a first shortcut seeds the triangles later rounds cut
	}
	if adds > maxAddsPerRound {
		adds = maxAddsPerRound
	}
	p.addShortcuts(e.Now(), u, triBound, adds, cut == 0)

	// Reschedule.
	e.After(event.Time(periodMS), func(en *event.Engine) { p.round(en, u) })
}

// cutRedundant removes up to maxCutsPerRound direct links that are the
// longest edge of some overlay triangle, worst (largest direct delay)
// first, never dropping either endpoint below minDegree.
func (p *Protocol) cutRedundant(at event.Time, u int, nbrs []int, triBound map[int]float64) int {
	type cand struct {
		w      int
		direct float64
	}
	var cuts []cand
	for _, w := range nbrs {
		direct := p.O.Dist(u, w)
		if bound, ok := triBound[w]; ok && direct >= bound && direct > 0 {
			cuts = append(cuts, cand{w: w, direct: direct})
		}
	}
	sort.Slice(cuts, func(i, j int) bool {
		if cuts[i].direct != cuts[j].direct {
			return cuts[i].direct > cuts[j].direct
		}
		return cuts[i].w < cuts[j].w
	})
	done := 0
	for _, c := range cuts {
		if done >= maxCutsPerRound {
			break
		}
		if p.O.Degree(u) <= minDegree || p.O.Degree(c.w) <= minDegree {
			continue
		}
		if p.O.RemoveEdge(u, c.w) {
			p.Counters.NotifyMessages++ // teardown notification
			p.Counters.Exchanges++      // one topology modification
			done++
			if p.Trace != nil {
				p.Trace(RewireEvent{At: at, U: u, W: c.w})
			}
		}
	}
	return done
}

// addShortcuts connects u to its closest two-hop non-neighbors, up to
// count. When bootstrap is set (no cut happened this round) the single add
// must be closer than u's worst current link, so the overlay cannot densify
// without bound before any triangles exist.
func (p *Protocol) addShortcuts(at event.Time, u int, triBound map[int]float64, count int, bootstrap bool) {
	if count <= 0 {
		return
	}
	type cand struct {
		w int
		d float64
	}
	var adds []cand
	for w := range triBound {
		if p.O.Logical.HasEdge(u, w) {
			continue
		}
		adds = append(adds, cand{w: w, d: p.O.Dist(u, w)})
	}
	sort.Slice(adds, func(i, j int) bool {
		if adds[i].d != adds[j].d {
			return adds[i].d < adds[j].d
		}
		return adds[i].w < adds[j].w
	})
	if bootstrap {
		worst := 0.0
		for _, v := range p.O.Neighbors(u) {
			if d := p.O.Dist(u, v); d > worst {
				worst = d
			}
		}
		filtered := adds[:0]
		for _, a := range adds {
			if a.d < worst {
				filtered = append(filtered, a)
			}
		}
		adds = filtered
	}
	if len(adds) > count {
		adds = adds[:count]
	}
	for _, a := range adds {
		if err := p.O.AddEdge(u, a.w); err == nil {
			p.Counters.NotifyMessages++ // connection setup
			p.Counters.Exchanges++
			if p.Trace != nil {
				p.Trace(RewireEvent{At: at, U: u, W: a.w, Added: true})
			}
		}
	}
}

// Package gnutella builds the unstructured, Gnutella-like overlays of the
// paper's evaluation.
//
// The paper relies on two structural facts about Gnutella-style overlays:
// they have "Power-law-like" degree distributions ("powerful nodes own more
// connections", citing Ripeanu et al.), and the minimum degree is small
// (the PROP-O experiments sweep m up to "the minimum average degree", 4).
// Preferential attachment with m = 4 links per joiner reproduces exactly
// that: minimum degree 4 and a heavy-tailed degree distribution in which
// the earliest joiners are the best-connected. The Fig. 7 heterogeneity
// experiment additionally exploits that correlation by declaring the
// highest-degree peers "fast".
//
// Entry points: Build, Net (the overlay.Membership implementation), and the
// TTL flood-traffic accounting (FloodStats). See DESIGN.md §1.
package gnutella

import (
	"fmt"
	"sort"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// Config parameterizes overlay construction.
type Config struct {
	// LinksPerJoin is the number of connections each joining peer opens
	// (the preferential-attachment m; the overlay's minimum degree).
	LinksPerJoin int
}

// DefaultConfig matches the paper's setting (minimum degree 4).
func DefaultConfig() Config { return Config{LinksPerJoin: 4} }

// Build constructs a Gnutella-like overlay over the given physical hosts.
// Peers join one at a time; each joiner attaches LinksPerJoin links to
// distinct existing peers chosen with probability proportional to
// (degree+1) — plain Barabási-Albert attachment with additive smoothing so
// the bootstrap peers are reachable. The result is always connected.
func Build(hosts []int, cfg Config, lat overlay.LatencyFunc, r *rng.Rand) (*overlay.Overlay, error) {
	if cfg.LinksPerJoin < 1 {
		return nil, fmt.Errorf("gnutella: LinksPerJoin = %d, want >= 1", cfg.LinksPerJoin)
	}
	if len(hosts) < 2 {
		return nil, fmt.Errorf("gnutella: need at least 2 peers, got %d", len(hosts))
	}
	o, err := overlay.New(hosts, lat)
	if err != nil {
		return nil, err
	}
	// repeated holds each slot once per (degree+1): sampling uniformly from
	// it is preferential attachment in O(1).
	repeated := make([]int, 0, 4*len(hosts)*cfg.LinksPerJoin)
	repeated = append(repeated, 0) // slot 0 with degree 0 (+1 smoothing)
	for slot := 1; slot < len(hosts); slot++ {
		k := cfg.LinksPerJoin
		if slot < cfg.LinksPerJoin {
			k = slot // early peers cannot reach full fan-out
		}
		chosen := map[int]bool{}
		for len(chosen) < k {
			cand := repeated[r.Intn(len(repeated))]
			if cand == slot || chosen[cand] {
				continue
			}
			chosen[cand] = true
		}
		// Sort for determinism: map iteration order would otherwise leak
		// into the sampling array and de-seed the generator's effect.
		nbs := make([]int, 0, len(chosen))
		for nb := range chosen {
			nbs = append(nbs, nb)
		}
		sort.Ints(nbs)
		for _, nb := range nbs {
			if err := o.AddEdge(slot, nb); err != nil {
				return nil, err
			}
			repeated = append(repeated, nb)
		}
		repeated = append(repeated, slot)
		for i := 0; i < k; i++ {
			repeated = append(repeated, slot)
		}
	}
	return o, nil
}

// Net is a Gnutella overlay with its membership rule: preferential
// attachment for joins and the neighbor handoff for leaves and crash
// repair. It implements overlay.Membership; Gnutella keeps no per-node
// state beyond the overlay, so the value is just the overlay and its Config.
type Net struct {
	O *overlay.Overlay
	Config
}

// Join implements overlay.Membership: the new peer on host attaches to
// existing peers by the same preferential rule as Build.
func (n Net) Join(host int, r *rng.Rand) (int, error) {
	o := n.O
	if n.LinksPerJoin < 1 {
		return -1, fmt.Errorf("gnutella: LinksPerJoin = %d, want >= 1", n.LinksPerJoin)
	}
	alive := o.AliveSlots()
	if len(alive) == 0 {
		return -1, fmt.Errorf("gnutella: cannot join an empty overlay")
	}
	slot, err := o.AddSlot(host)
	if err != nil {
		return -1, err
	}
	k := n.LinksPerJoin
	if k > len(alive) {
		k = len(alive)
	}
	weights := make([]float64, len(alive))
	for i, s := range alive {
		weights[i] = float64(o.Degree(s) + 1)
	}
	chosen := map[int]bool{}
	for len(chosen) < k {
		cand := alive[r.Pick(weights)]
		if chosen[cand] {
			continue
		}
		chosen[cand] = true
	}
	// In ascending order, as Build adds them, so no result reads map order.
	nbs := make([]int, 0, len(chosen))
	for nb := range chosen {
		nbs = append(nbs, nb)
	}
	sort.Ints(nbs)
	for _, nb := range nbs {
		if err := o.AddEdge(slot, nb); err != nil {
			return -1, err
		}
	}
	return slot, nil
}

// Leave implements overlay.Membership: the peer at slot departs and its
// former neighbors get the handoff.
func (n Net) Leave(slot int, r *rng.Rand) error {
	if !n.O.Alive(slot) {
		return fmt.Errorf("gnutella: Leave(%d) on dead slot", slot)
	}
	former := n.O.Neighbors(slot)
	if err := n.O.RemoveSlot(slot); err != nil {
		return err
	}
	n.handoff(former, false, r)
	return nil
}

// handoff is the standard Gnutella neighbor handoff around a departed slot:
// its surviving former neighbors are chained into a ring, so the departure
// cannot partition them, and each one under LinksPerJoin links is topped up
// with uniformly random live peers. evict first drops a survivor's other
// stale links (after a crash), so that its degree counts live links only.
func (n Net) handoff(former []int, evict bool, r *rng.Rand) {
	o := n.O
	live := make([]int, 0, len(former))
	for _, f := range former {
		if o.Alive(f) {
			live = append(live, f)
		}
	}
	for i := 0; i+1 < len(live); i++ {
		o.AddEdge(live[i], live[i+1]) // an existing edge is left as it is
	}
	if o.NumAlive() < 2 {
		return
	}
	for _, f := range live {
		if evict {
			o.EvictDeadNeighbors(f)
		}
		n.TopUp(f, r)
	}
}

// TopUp restores live slot u's degree to LinksPerJoin with uniformly random
// live non-neighbors — the repair rule of the neighbor handoff, also run by
// a live failure detector after it evicts a link.
func (n Net) TopUp(u int, r *rng.Rand) {
	o := n.O
	alive := o.AliveSlots()
	if len(alive) < 2 {
		return
	}
	for o.Degree(u) < n.LinksPerJoin {
		cand := alive[r.Intn(len(alive))]
		if cand == u || o.Logical.HasEdge(u, cand) {
			// Degenerate small overlays may not admit more edges.
			if o.Degree(u) >= len(alive)-1 {
				return
			}
			continue
		}
		if err := o.AddEdge(u, cand); err != nil {
			return
		}
	}
}

// Package satmatch implements the SAT-Match baseline (Ren, Guo, Jiang,
// Zhang — "SAT-Match: a self-adaptive topology matching method to achieve
// low lookup latency in structured P2P overlay networks", IPDPS 2004),
// which the paper's §2 cites as the structured-system alternative to PROP.
//
// SAT-Match's move is the *jump*: a peer flood-probes a small region of the
// overlay, finds the physically closest peer in it, and relocates — leaves
// the ring and rejoins with a fresh identifier adjacent to that peer — so
// that physically close peers cluster in identifier space. The contrast
// with PROP-G is exactly the one the paper draws: relocation mints new
// identifiers (forfeiting the anonymity/security property of only ever
// trading *existing* IDs, §4.1) and re-assigns ownership of the keyspace
// between old and new neighbors (data movement), while PROP-G's pairwise
// swap does neither.
//
// The probe period (one minute, PROP's INIT_TIMER), the TTL-2 probe region,
// the 5 ms jump threshold and the landing offset are fixed at the common
// SAT-Match setup.
//
// Key type: Protocol. See DESIGN.md §1 (SAT-Match row) and the "satmatch"
// extension in EXPERIMENTS.md.
package satmatch

import (
	"fmt"

	"repro/internal/chord"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/rng"
)

const (
	// periodMS is the probe period per peer (aligned with PROP's
	// INIT_TIMER for like-for-like comparisons).
	periodMS = 60000.0
	// ttl is the probe flood radius in overlay hops (the paper's "small
	// region"; 2 matches LTM's detector and PROP's default walk).
	ttl = 2
	// minGainMS is the minimum physical-latency improvement over the
	// current closest ring neighbor required to trigger a jump.
	minGainMS = 5.0
	// idOffset bounds the identifier distance at which a jumper lands next
	// to its target (a small random offset avoids collisions).
	idOffset = 1 << 16
)

// Protocol runs SAT-Match over one Chord ring.
type Protocol struct {
	// Ring is the overlay being optimized.
	Ring *chord.Ring
	// Counters tallies probe/jump activity: Probes = rounds, Exchanges =
	// executed jumps, WalkMessages = flood probes sent.
	Counters metrics.Counters
	// Relocations counts minted identifiers (each jump = one new ID).
	Relocations int

	r *rng.Rand
}

// New creates a SAT-Match instance over ring. Probes measure through the
// ring overlay's own latency function.
func New(ring *chord.Ring, r *rng.Rand) *Protocol {
	return &Protocol{Ring: ring, r: r}
}

// Start schedules every live peer's jump loop, staggered over one period.
// Jump loops survive the peer's own relocation (the new slot inherits it).
func (p *Protocol) Start(e *event.Engine) {
	for _, slot := range p.Ring.O.AliveSlots() {
		host := p.Ring.O.HostOf(slot)
		delay := event.Time(p.r.Float64() * periodMS)
		e.After(delay, func(en *event.Engine) { p.round(en, host) })
	}
}

// round is one probe-and-maybe-jump cycle for the peer on the given host.
// Identified by host, not slot: a jump changes the peer's slot.
func (p *Protocol) round(e *event.Engine, host int) {
	slot := p.Ring.O.SlotOfHost(host)
	if slot < 0 {
		return // peer left the system
	}
	p.Counters.Probes++

	// Flood-probe the TTL-hop region.
	region := p.probeRegion(slot)
	// Find the physically closest peer in the region.
	best, bestD := -1, 0.0
	for _, t := range region {
		d := p.Ring.O.Latency(host, p.Ring.O.HostOf(t))
		if best < 0 || d < bestD {
			best, bestD = t, d
		}
	}
	jumped := false
	if best >= 0 {
		// Compare against the current closest ring neighbor (successors):
		// jumping only pays if the found peer is materially closer.
		curBest := p.closestSuccessorDistance(slot, host)
		if bestD+minGainMS < curBest && !p.isRingNeighbor(slot, best) {
			jumped = p.jump(slot, host, best)
		}
	}
	_ = jumped
	e.After(event.Time(periodMS), func(en *event.Engine) { p.round(en, host) })
}

// probeRegion returns the slots within ttl logical hops of slot (excluding
// slot itself), counting flood messages.
func (p *Protocol) probeRegion(slot int) []int {
	type qe struct{ s, depth int }
	seen := map[int]bool{slot: true}
	var out []int
	queue := []qe{{slot, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.depth == ttl {
			continue
		}
		for _, nb := range p.Ring.O.Neighbors(cur.s) {
			p.Counters.WalkMessages++
			if seen[nb] || !p.Ring.O.Alive(nb) {
				continue
			}
			seen[nb] = true
			out = append(out, nb)
			queue = append(queue, qe{nb, cur.depth + 1})
		}
	}
	return out
}

// closestSuccessorDistance returns the physical distance to the nearest
// current successor, or +Inf-ish when none.
func (p *Protocol) closestSuccessorDistance(slot, host int) float64 {
	best := -1.0
	for _, s := range p.Ring.Successors(slot) {
		if !p.Ring.O.Alive(s) {
			continue
		}
		d := p.Ring.O.Latency(host, p.Ring.O.HostOf(s))
		if best < 0 || d < best {
			best = d
		}
	}
	if best < 0 {
		return 1e18
	}
	return best
}

// isRingNeighbor reports whether t is already in slot's successor list.
func (p *Protocol) isRingNeighbor(slot, t int) bool {
	for _, s := range p.Ring.Successors(slot) {
		if s == t {
			return true
		}
	}
	return false
}

// jump relocates the peer on host next to target: leave, rejoin with an
// identifier a small random offset after the target's. Reports success.
func (p *Protocol) jump(slot, host, target int) bool {
	targetID := p.Ring.ID[target]
	if err := p.Ring.Leave(slot, p.r); err != nil {
		return false
	}
	// A few attempts in case of ID collisions.
	for attempt := 0; attempt < 8; attempt++ {
		id := targetID + 1 + uint32(p.r.Uint64n(idOffset))
		if _, err := p.Ring.JoinWithID(host, id); err == nil {
			p.Counters.Exchanges++
			p.Relocations++
			// The jumper and its new neighbors update entries.
			p.Counters.NotifyMessages += uint64(len(p.Ring.Successors(p.Ring.O.SlotOfHost(host))) + 1)
			return true
		}
	}
	// Could not rejoin near the target; rejoin with a random ID so the
	// peer is never lost.
	if _, err := p.Ring.Join(host, p.r); err != nil {
		panic(fmt.Sprintf("satmatch: peer on host %d lost during jump: %v", host, err))
	}
	return false
}

package chord

import (
	"fmt"

	"repro/internal/rng"
)

// Dynamic membership. Chord's correctness invariant is that successor
// lists are exact; finger tables only accelerate routing and may go stale
// between finger-repair rounds (nextHop skips dead entries and falls back to
// the successor). Join and Leave therefore repair successor lists eagerly
// — for the joiner/leaver's ring neighborhood — and leave finger repair to
// the periodic maintenance the real protocol also uses.

// Join implements overlay.Membership: a node joins on host with a fresh
// uniformly random unique identifier (JoinWithID).
func (ring *Ring) Join(host int, r *rng.Rand) (int, error) {
	return ring.JoinWithID(host, uniqueID(r, ring.hasID))
}

// JoinWithID adds a node on host with a caller-chosen identifier — the
// primitive behind proximity-driven ID relocation schemes (SAT-Match, PIS)
// where a node deliberately rejoins next to a physically close peer. The
// identifier must be unused. The newcomer's successor list and fingers are
// wired, and so are the successor lists of the ring neighbors that now
// include it.
func (ring *Ring) JoinWithID(host int, id uint32) (int, error) {
	if ring.hasID(id) {
		return -1, fmt.Errorf("chord: identifier %d already in use", id)
	}
	slot, err := ring.O.AddSlot(host)
	if err != nil {
		return -1, err
	}
	// ID is indexed by slot; grow the slice to cover the new slot.
	for len(ring.ID) <= slot {
		ring.ID = append(ring.ID, 0)
	}
	ring.ID[slot] = id
	// Grow per-slot tables.
	for len(ring.succ) <= slot {
		ring.succ = append(ring.succ, nil)
	}
	for len(ring.fingers) <= slot {
		ring.fingers = append(ring.fingers, nil)
	}
	i := ring.insertByID(slot)

	// The newcomer's own tables.
	ring.rebuildNode(slot)
	// Ring neighbors within successorListLen positions behind the newcomer
	// must refresh their successor lists (the newcomer now appears there).
	n := len(ring.sorted)
	for k := 1; k <= successorListLen && k < n; k++ {
		ring.rebuildNode(ring.sorted[((i-k)%n+n)%n])
	}
	return slot, nil
}

// Leave implements overlay.Membership: its ring predecessors re-point their
// successor lists, every finger that referenced it is repaired, and its
// logical links are dropped. The departing node's keys implicitly transfer
// to its successor (ownerOf semantics over the updated ring).
func (ring *Ring) Leave(slot int, _ *rng.Rand) error {
	if !ring.O.Alive(slot) {
		return fmt.Errorf("chord: Leave(%d) on dead slot", slot)
	}
	if len(ring.sorted) <= 2 {
		return fmt.Errorf("chord: refusing to shrink below 2 nodes")
	}
	// Locate and remove from the sorted ring.
	i := ring.searchID(ring.ID[slot])
	if i >= len(ring.sorted) || ring.sorted[i] != slot {
		return fmt.Errorf("chord: slot %d not in ring order", slot)
	}
	ring.sorted = append(ring.sorted[:i], ring.sorted[i+1:]...)
	if err := ring.O.RemoveSlot(slot); err != nil {
		return err
	}
	ring.succ[slot] = nil
	ring.fingers[slot] = nil

	// Predecessors refresh successor lists.
	n := len(ring.sorted)
	for k := 0; k < successorListLen && k < n; k++ {
		ring.rebuildNode(ring.sorted[((i-1-k)%n+n)%n])
	}
	// Repair every finger that pointed at the departed slot. (Global scan:
	// the simulator's stand-in for failure detection + lazy repair.)
	for _, s := range ring.sorted {
		changed := false
		for j, f := range ring.fingers[s] {
			if f == slot {
				start := (uint64(ring.ID[s]) + (uint64(1) << uint(j))) % ringSize
				nf := ring.pickFinger(s, j, start)
				ring.fingers[s][j] = nf
				changed = true
			}
		}
		if changed {
			ring.mirrorNode(s)
		}
	}
	return nil
}

// rebuildNode recomputes one slot's successor list and fingers and mirrors
// its links into the logical graph.
func (ring *Ring) rebuildNode(slot int) {
	n := len(ring.sorted)
	i := ring.searchID(ring.ID[slot])
	succ := make([]int, 0, successorListLen)
	for k := 1; k <= successorListLen && k < n; k++ {
		succ = append(succ, ring.sorted[(i+k)%n])
	}
	ring.succ[slot] = succ
	fingers := make([]int, Bits)
	for j := 0; j < Bits; j++ {
		start := (uint64(ring.ID[slot]) + (uint64(1) << uint(j))) % ringSize
		fingers[j] = ring.pickFinger(slot, j, start)
	}
	ring.fingers[slot] = fingers
	ring.mirrorNode(slot)
}

// pickFinger chooses the finger-j entry for slot (plain or PNS).
func (ring *Ring) pickFinger(slot, j int, start uint64) int {
	if ring.cfg.PNS {
		end := (uint64(ring.ID[slot]) + (uint64(1) << uint(j+1))) % ringSize
		return ring.nearestInInterval(slot, start, end)
	}
	return ring.ownerOf(start)
}

// mirrorNode adds slot's current links to the logical graph. Old links are
// not removed eagerly (real nodes keep connections open until GC); the
// overlay-level metrics consider live links only, and dead endpoints drop
// their edges via RemoveSlot.
func (ring *Ring) mirrorNode(slot int) {
	for _, t := range ring.succ[slot] {
		if t != slot && ring.O.Alive(t) {
			ring.O.AddEdge(slot, t)
		}
	}
	for _, t := range ring.fingers[slot] {
		if t != slot && ring.O.Alive(t) {
			ring.O.AddEdge(slot, t)
		}
	}
}

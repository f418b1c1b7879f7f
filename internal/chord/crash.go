package chord

import "repro/internal/rng"

// Crash-stop (DESIGN.md §9). Until Repair, a corpse keeps its place in the
// sorted ring, the successor lists and the finger tables; routing survives
// because nextHop skips dead entries and falls back along the successor
// list.

// Crash implements overlay.Membership.
func (ring *Ring) Crash(slot int) error { return ring.O.CrashMember(slot) }

// Repair implements overlay.Membership: every corpse leaves the sorted ring,
// its tables are released and its stale edges purged, and every survivor
// rebuilds its successor list and fingers.
func (ring *Ring) Repair(*rng.Rand) (int, error) {
	kept, crashed, err := ring.O.DropCrashed(ring.sorted)
	if err != nil || len(crashed) == 0 {
		return 0, err
	}
	ring.sorted = kept
	for _, c := range crashed {
		ring.succ[c] = nil
		ring.fingers[c] = nil
	}
	for _, s := range ring.sorted {
		ring.rebuildNode(s)
	}
	return len(crashed), nil
}

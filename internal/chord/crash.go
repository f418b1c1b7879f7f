package chord

import (
	"slices"

	"repro/internal/rng"
)

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
	crashed, err := ring.dropCrashed()
	if err != nil || len(crashed) == 0 {
		return 0, err
	}
	for _, c := range crashed {
		ring.succ[c] = nil
		ring.fingers[c] = nil
	}
	for _, s := range ring.sorted {
		ring.rebuildNode(s)
	}
	return len(crashed), nil
}

// dropCrashed removes every unpurged crashed slot from the sorted ring, in
// one pass over it, purges each, and returns them. CrashMember keeps two
// slots alive, so the ring never shrinks below two.
func (ring *Ring) dropCrashed() (crashed []int, err error) {
	crashed = ring.O.CrashedSlots()
	if len(crashed) == 0 {
		return nil, nil
	}
	ring.sorted = slices.DeleteFunc(ring.sorted, func(s int) bool { return !ring.O.Alive(s) })
	for _, c := range crashed {
		if err := ring.O.PurgeCrashed(c); err != nil {
			return nil, err
		}
	}
	return crashed, nil
}

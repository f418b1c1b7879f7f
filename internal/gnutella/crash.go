package gnutella

import "repro/internal/rng"

// Crash implements overlay.Membership.
func (n Net) Crash(slot int) error { return n.O.CrashMember(slot) }

// Repair implements overlay.Membership: every corpse's stale edges are
// purged and its surviving former neighbors get Leave's handoff, each after
// evicting its other stale links.
func (n Net) Repair(r *rng.Rand) (int, error) {
	crashed := n.O.CrashedSlots()
	for _, c := range crashed {
		former := n.O.Neighbors(c)
		if err := n.O.PurgeCrashed(c); err != nil {
			return 0, err
		}
		n.handoff(former, true, r)
	}
	return len(crashed), nil
}

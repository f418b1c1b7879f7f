package kademlia

import "repro/internal/rng"

// Crash-stop (DESIGN.md §9). Buckets heal through ordinary traffic, so
// Repair is a purge of the corpses followed by the same Refresh a graceful
// Leave runs.

// Crash implements overlay.Membership.
func (net *Net) Crash(slot int) error { return net.O.CrashMember(slot) }

// Repair implements overlay.Membership: corpses are purged and the buckets
// refilled from the live membership.
func (net *Net) Repair(*rng.Rand) (int, error) {
	crashed := net.O.CrashedSlots()
	if len(crashed) == 0 {
		return 0, nil
	}
	for _, c := range crashed {
		net.buckets[c] = nil
		if err := net.O.PurgeCrashed(c); err != nil {
			return 0, err
		}
	}
	net.Refresh()
	return len(crashed), nil
}

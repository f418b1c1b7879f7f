package can

import "repro/internal/rng"

// Crash-stop (DESIGN.md §9). CAN's original paper handles failures with the
// takeover scheme it uses for departures: a neighbor claims the dead zone
// once its heartbeats stop. Until Repair the zone stays assigned to the
// corpse.

// Crash implements overlay.Membership.
func (sp *Space) Crash(slot int) error { return sp.O.CrashMember(slot) }

// Repair implements overlay.Membership: it replays Leave's takeover for one
// corpse at a time until no corpse owns a zone. A takeover can hand a zone
// to a slot that is itself crashed (its own repair then reassigns the
// merged zone); each pass removes exactly one corpse, so the loop ends.
func (sp *Space) Repair(*rng.Rand) (int, error) {
	repaired := 0
	for {
		victim := -1
		for _, c := range sp.O.CrashedSlots() {
			if _, owns := sp.leafOf[c]; owns {
				victim = c
				break
			}
		}
		if victim < 0 {
			return repaired, nil
		}
		if err := sp.vacate(victim, sp.O.PurgeCrashed); err != nil {
			return repaired, err
		}
		repaired++
	}
}

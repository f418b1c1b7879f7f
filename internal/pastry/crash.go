package pastry

import "repro/internal/rng"

// Crash-stop (DESIGN.md §9). Until Repair — the stand-in for Pastry's
// leaf-set liveness checks — a corpse stays in the sorted ring and in the
// survivors' leaf sets and routing tables.

// Crash implements overlay.Membership.
func (m *Mesh) Crash(slot int) error { return m.O.CrashMember(slot) }

// Repair implements overlay.Membership: corpses leave the sorted ring, their
// tables are released and stale edges purged, and leaf sets, routing tables
// and logical links are rebuilt for the survivors.
func (m *Mesh) Repair(*rng.Rand) (int, error) {
	kept, crashed, err := m.O.DropCrashed(m.sorted)
	if err != nil || len(crashed) == 0 {
		return 0, err
	}
	m.sorted = kept
	for _, c := range crashed {
		m.leaves[c] = nil
		m.table[c] = nil
	}
	m.rebuild()
	return len(crashed), nil
}

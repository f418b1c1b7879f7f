package pastry

import (
	"fmt"

	"repro/internal/rng"
)

// Crash-stop (DESIGN.md §9). Until Repair — the stand-in for Pastry's
// leaf-set liveness checks — a corpse stays in the sorted ring and in the
// survivors' leaf sets and routing tables.

// Crash implements overlay.Membership.
func (m *Mesh) Crash(slot int) error { return m.O.CrashMember(slot) }

// Repair implements overlay.Membership: corpses leave the sorted ring, their
// tables are released and stale edges purged, and leaf sets, routing tables
// and logical links are rebuilt for the survivors.
func (m *Mesh) Repair(*rng.Rand) (int, error) {
	crashed := m.O.CrashedSlots()
	if len(crashed) == 0 {
		return 0, nil
	}
	dead := make(map[int]bool, len(crashed))
	for _, c := range crashed {
		dead[c] = true
	}
	kept := m.sorted[:0]
	for _, s := range m.sorted {
		if !dead[s] {
			kept = append(kept, s)
		}
	}
	if len(kept) < 2 {
		return 0, fmt.Errorf("pastry: repair would shrink below 2 nodes")
	}
	m.sorted = kept
	for _, c := range crashed {
		m.leaves[c] = nil
		m.table[c] = nil
		if err := m.O.PurgeCrashed(c); err != nil {
			return 0, err
		}
	}
	m.rebuild()
	return len(crashed), nil
}

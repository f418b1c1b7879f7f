package pastry

import (
	"fmt"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// Dynamic membership. Pastry repairs leaf sets eagerly and routing tables
// lazily in practice; the simulator's equivalent of the converged
// post-churn state is a rebuild from global knowledge — the same source
// Build uses — restricted to the live membership. Join and Leave therefore
// update the sorted ring and rebuild leaf sets, tables, and logical links.

// Join implements overlay.Membership: a node joins on host with a fresh
// uniformly random unique identifier.
func (m *Mesh) Join(host int, r *rng.Rand) (int, error) {
	id := overlay.UniqueID(r, func(id uint32) bool { return overlay.HasID(m.sorted, m.ID, id) })
	slot, err := m.O.AddSlot(host)
	if err != nil {
		return -1, err
	}
	for len(m.ID) <= slot {
		m.ID = append(m.ID, 0)
		m.leaves = append(m.leaves, nil)
		m.table = append(m.table, nil)
	}
	m.ID[slot] = id
	m.sorted, _ = overlay.InsertByID(m.sorted, m.ID, slot)
	m.rebuild()
	return slot, nil
}

// Leave implements overlay.Membership. The mesh must retain at least two
// nodes.
func (m *Mesh) Leave(slot int, _ *rng.Rand) error {
	if !m.O.Alive(slot) {
		return fmt.Errorf("pastry: Leave(%d) on dead slot", slot)
	}
	if len(m.sorted) <= 2 {
		return fmt.Errorf("pastry: refusing to shrink below 2 nodes")
	}
	i, ok := m.pos[slot]
	if !ok || m.sorted[i] != slot {
		return fmt.Errorf("pastry: slot %d not in ring order", slot)
	}
	m.sorted = append(m.sorted[:i], m.sorted[i+1:]...)
	if err := m.O.RemoveSlot(slot); err != nil {
		return err
	}
	m.leaves[slot] = nil
	m.table[slot] = nil
	m.rebuild()
	return nil
}

// rebuild reconstructs positions, leaf sets, routing tables, and logical
// links for the current live membership.
func (m *Mesh) rebuild() {
	m.pos = make(map[int]int, len(m.sorted))
	for i, s := range m.sorted {
		m.pos[s] = i
	}
	for _, e := range m.O.Logical.Edges() {
		m.O.Logical.RemoveEdge(e.U, e.V)
	}
	m.buildLeafSets()
	m.buildTables()
	m.mirror()
}

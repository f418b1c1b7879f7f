package pastry

import (
	"fmt"
	"sort"

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
	inUse := make(map[uint32]bool, len(m.sorted))
	for _, s := range m.sorted {
		inUse[m.ID[s]] = true
	}
	var id uint32
	for {
		id = uint32(r.Uint64())
		if !inUse[id] {
			break
		}
	}
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
	i := sort.Search(len(m.sorted), func(k int) bool { return m.ID[m.sorted[k]] >= id })
	m.sorted = append(m.sorted, 0)
	copy(m.sorted[i+1:], m.sorted[i:])
	m.sorted[i] = slot
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

package can

import (
	"fmt"
	"math"
)

// CheckInvariants verifies the space's structural contract — the CAN-level
// predicate the online auditor (internal/audit) evaluates during audited
// runs. CAN's correctness rests on the zones of live slots exactly tiling
// the unit torus and the overlay links exactly reflecting zone abutment:
//
//   - every live zone has positive area and the live areas sum to 1;
//   - no two live zones overlap;
//   - the split tree agrees with the flat state: each live slot's leaf owns
//     it and carries its zone;
//   - slots are logically linked iff their zones abut.
//
// It returns the first violation found, or nil.
func (sp *Space) CheckInvariants() error {
	alive := sp.O.AliveSlots()
	total := 0.0
	for _, s := range alive {
		z := sp.Zones[s]
		if z.Area() <= 0 {
			return fmt.Errorf("can: slot %d owns a degenerate zone %+v", s, z)
		}
		total += float64(z.Area())
		leaf, ok := sp.leafOf[s]
		if !ok {
			return fmt.Errorf("can: live slot %d missing from the split tree", s)
		}
		if !leaf.isLeaf() {
			return fmt.Errorf("can: slot %d maps to an internal tree node", s)
		}
		if leaf.owner != s {
			return fmt.Errorf("can: slot %d's tree leaf is owned by %d", s, leaf.owner)
		}
		if leaf.zone != z {
			return fmt.Errorf("can: slot %d zone %+v disagrees with tree leaf %+v", s, z, leaf.zone)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("can: live zones cover area %v, want 1 (tiling broken)", total)
	}
	for i, a := range alive {
		for _, b := range alive[i+1:] {
			za, zb := sp.Zones[a], sp.Zones[b]
			if overlapLen(za.X0, za.X1, zb.X0, zb.X1) > 1e-12 &&
				overlapLen(za.Y0, za.Y1, zb.Y0, zb.Y1) > 1e-12 {
				return fmt.Errorf("can: zones of slots %d and %d overlap", a, b)
			}
			if has, abut := sp.O.Logical.HasEdge(a, b), zonesAbut(za, zb); has != abut {
				return fmt.Errorf("can: slots %d,%d linked=%v but zones abut=%v", a, b, has, abut)
			}
		}
	}
	return nil
}

package can

import (
	"fmt"

	"repro/internal/rng"
)

// Dynamic membership for CAN, following the original paper's takeover
// scheme on the zone split tree:
//
//   - Join: the new node picks a point, the zone containing it splits, the
//     newcomer takes the half containing its point.
//   - Leave: if the departing zone's split-tree sibling is a leaf, the
//     sibling's owner absorbs the merged parent rectangle. Otherwise the
//     deepest sibling-leaf *pair* inside the sibling subtree is merged —
//     one of the pair's owners absorbs their parent rectangle — and the
//     freed owner relocates to take over the departed zone. Either way the
//     zones remain rectangles that exactly tile the torus.
//
// The split tree is maintained by Build (every join splits a leaf), so
// churn operations are local tree surgery plus neighbor-link repair.

// treeNode is a node of the zone split tree. Leaves own zones.
type treeNode struct {
	zone   Zone
	owner  int // slot; valid for leaves only
	kids   [2]*treeNode
	parent *treeNode
	depth  int
}

func (t *treeNode) isLeaf() bool { return t.kids[0] == nil }

// Join implements overlay.Membership: the host joins at the point joinPoint
// draws for it (uniform, or landmark-binned under PIS).
func (sp *Space) Join(host int, r *rng.Rand) (int, error) {
	p := sp.joinPoint(host, r)
	occupantLeaf := sp.leafContaining(p)
	occupant := occupantLeaf.owner
	slot, err := sp.O.AddSlot(host)
	if err != nil {
		return -1, err
	}
	for len(sp.Zones) <= slot {
		sp.Zones = append(sp.Zones, Zone{})
		sp.JoinPoint = append(sp.JoinPoint, Point{})
	}
	sp.JoinPoint[slot] = p
	newcomer, keeper := splitZone(occupantLeaf.zone, p)
	// The occupant keeps one half, the newcomer takes the half with p.
	kidKeeper := &treeNode{zone: keeper, owner: occupant, parent: occupantLeaf, depth: occupantLeaf.depth + 1}
	kidNew := &treeNode{zone: newcomer, owner: slot, parent: occupantLeaf, depth: occupantLeaf.depth + 1}
	occupantLeaf.kids = [2]*treeNode{kidKeeper, kidNew}
	sp.leafOf[occupant] = kidKeeper
	sp.leafOf[slot] = kidNew
	sp.Zones[occupant] = keeper
	sp.Zones[slot] = newcomer
	sp.relinkNeighbors(occupant)
	sp.relinkNeighbors(slot)
	return slot, nil
}

// Leave implements overlay.Membership: the slot's zone is reassigned per
// the takeover scheme. The space must retain at least two nodes.
func (sp *Space) Leave(slot int, _ *rng.Rand) error {
	if _, ok := sp.leafOf[slot]; !ok || !sp.O.Alive(slot) {
		return fmt.Errorf("can: Leave(%d): not a live member", slot)
	}
	if sp.O.NumAlive() <= 2 {
		return fmt.Errorf("can: refusing to shrink below 2 nodes")
	}
	return sp.vacate(slot, sp.O.RemoveSlot)
}

// vacate hands the zone of a departing slot to a survivor per the takeover
// scheme; remove takes the slot out of the overlay first (RemoveSlot for a
// leave, PurgeCrashed for a corpse).
func (sp *Space) vacate(slot int, remove func(int) error) error {
	leaf := sp.leafOf[slot]
	parent := leaf.parent
	if parent == nil {
		return fmt.Errorf("can: cannot remove the root owner")
	}
	sib := parent.kids[0]
	if sib == leaf {
		sib = parent.kids[1]
	}
	if err := remove(slot); err != nil {
		return err
	}
	delete(sp.leafOf, slot)

	if sib.isLeaf() {
		// Simple merge: the sibling's owner absorbs the parent rectangle.
		taker := sib.owner
		parent.owner = taker
		parent.kids = [2]*treeNode{}
		sp.leafOf[taker] = parent
		sp.Zones[taker] = parent.zone
		sp.relinkNeighbors(taker)
		return nil
	}
	// Defragmentation: merge the deepest sibling-leaf pair under sib; the
	// freed owner relocates into the vacated zone.
	pairParent := deepestLeafPair(sib)
	freed := pairParent.kids[0].owner
	absorber := pairParent.kids[1].owner
	pairParent.owner = absorber
	pairParent.kids = [2]*treeNode{}
	sp.leafOf[absorber] = pairParent
	sp.Zones[absorber] = pairParent.zone
	leaf.owner = freed
	sp.leafOf[freed] = leaf
	sp.Zones[freed] = leaf.zone
	sp.relinkNeighbors(absorber)
	sp.relinkNeighbors(freed)
	return nil
}

// deepestLeafPair returns the deepest internal node under t whose two
// children are both leaves. Such a node exists in every finite subtree.
func deepestLeafPair(t *treeNode) *treeNode {
	var best *treeNode
	var walk func(*treeNode)
	walk = func(n *treeNode) {
		if n.isLeaf() {
			return
		}
		if n.kids[0].isLeaf() && n.kids[1].isLeaf() {
			if best == nil || n.depth > best.depth {
				best = n
			}
			return
		}
		walk(n.kids[0])
		walk(n.kids[1])
	}
	walk(t)
	return best
}

// leafContaining descends the split tree to the leaf whose zone contains p.
func (sp *Space) leafContaining(p Point) *treeNode {
	n := sp.root
	for !n.isLeaf() {
		if n.kids[0].zone.Contains(p) {
			n = n.kids[0]
		} else {
			n = n.kids[1]
		}
	}
	return n
}

// relinkNeighbors recomputes slot's adjacency: its old links are dropped
// and fresh abutment links are added against every live zone.
func (sp *Space) relinkNeighbors(slot int) {
	if !sp.O.Alive(slot) {
		return
	}
	for _, nb := range sp.O.Neighbors(slot) {
		sp.O.RemoveEdge(slot, nb)
	}
	z := sp.Zones[slot]
	for _, other := range sp.O.AliveSlots() {
		if other == slot {
			continue
		}
		if zonesAbut(z, sp.Zones[other]) {
			sp.O.AddEdge(slot, other)
		}
	}
}

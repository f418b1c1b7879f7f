package kademlia

import (
	"fmt"
	"slices"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// Dynamic membership. Kademlia buckets self-heal through ordinary lookup
// traffic; the simulator's equivalent of the converged post-churn state is
// a bucket refill from global knowledge restricted to the live membership
// (the same source Build uses).

// Join implements overlay.Membership: a node joins on host with a fresh
// uniformly random unique identifier.
func (net *Net) Join(host int, r *rng.Rand) (int, error) {
	id := overlay.UniqueID(r, func(id uint32) bool {
		return slices.ContainsFunc(net.O.AliveSlots(), func(s int) bool { return net.ID[s] == id })
	})
	slot, err := net.O.AddSlot(host)
	if err != nil {
		return -1, err
	}
	for len(net.ID) <= slot {
		net.ID = append(net.ID, 0)
		net.buckets = append(net.buckets, nil)
	}
	net.ID[slot] = id
	net.Refresh()
	return slot, nil
}

// Leave implements overlay.Membership. The network must retain at least two
// nodes.
func (net *Net) Leave(slot int, _ *rng.Rand) error {
	if !net.O.Alive(slot) {
		return fmt.Errorf("kademlia: Leave(%d) on dead slot", slot)
	}
	if net.O.NumAlive() <= 2 {
		return fmt.Errorf("kademlia: refusing to shrink below 2 nodes")
	}
	if err := net.O.RemoveSlot(slot); err != nil {
		return err
	}
	net.buckets[slot] = nil
	net.Refresh()
	return nil
}

package kademlia

import "fmt"

// CheckInvariants verifies the network's structural contract — the
// Kademlia-level predicate the online auditor (internal/audit) evaluates
// during audited runs:
//
//   - live slots carry pairwise distinct identifiers;
//   - every bucket entry of a live slot is live and not duplicated;
//   - each contact sits in the correct bucket: bucket i of slot s holds
//     only contacts whose highest differing ID bit with s is i;
//   - no bucket exceeds its capacity K.
//
// It returns the first violation found, or nil.
func (net *Net) CheckInvariants() error {
	alive := net.O.AliveSlots()
	byID := make(map[uint32]int, len(alive))
	for _, s := range alive {
		if prev, dup := byID[net.ID[s]]; dup {
			return fmt.Errorf("kademlia: slots %d and %d share identifier %d", prev, s, net.ID[s])
		}
		byID[net.ID[s]] = s
	}
	for _, s := range alive {
		if net.buckets[s] == nil {
			return fmt.Errorf("kademlia: live slot %d has no buckets", s)
		}
		for i, bucket := range net.buckets[s] {
			if len(bucket) > bucketSize {
				return fmt.Errorf("kademlia: slot %d bucket %d holds %d contacts, capacity %d",
					s, i, len(bucket), bucketSize)
			}
			seen := make(map[int]bool, len(bucket))
			for _, t := range bucket {
				if !net.O.Alive(t) {
					return fmt.Errorf("kademlia: slot %d bucket %d references dead slot %d", s, i, t)
				}
				if seen[t] {
					return fmt.Errorf("kademlia: slot %d bucket %d lists contact %d twice", s, i, t)
				}
				seen[t] = true
				if bi := bucketIndex(net.ID[s], net.ID[t]); bi != i {
					return fmt.Errorf("kademlia: contact %d in slot %d bucket %d belongs in bucket %d",
						t, s, i, bi)
				}
			}
		}
	}
	return nil
}

// Invariant constructors over the shared overlay model. DHT-specific
// invariants (Chord ring order, CAN tiling) live as CheckInvariants methods
// in their own packages — this package must not import them, because their
// tests import this package — and are adapted via Check.
package audit

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/overlay"
)

// OverlayBijection checks the slot↔host mapping of o: every live slot backed
// by a distinct host, reverse map exact, dead slots detached.
func OverlayBijection(o *overlay.Overlay) Invariant {
	return Check("overlay-bijection", o.CheckInvariants)
}

// OverlayConnected checks that the live part of o's logical graph stays
// connected — the executable form of Theorem 1's connectivity persistence.
func OverlayConnected(o *overlay.Overlay) Invariant {
	return Check("overlay-connected", func() error {
		if !o.Connected() {
			return fmt.Errorf("live logical graph is disconnected")
		}
		return nil
	})
}

// DegreeSequencePreserved snapshots o's logical degree sequence at
// construction time and checks it never changes — PROP-O trades m neighbors
// for m neighbors, so the sorted degree multiset is conserved.
func DegreeSequencePreserved(o *overlay.Overlay) Invariant {
	want := o.Logical.DegreeSequence()
	return Check("degree-sequence", func() error {
		got := o.Logical.DegreeSequence()
		if len(got) != len(want) {
			return fmt.Errorf("degree sequence length changed: %d -> %d", len(want), len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("degree sequence changed at rank %d: %d -> %d", i, want[i], got[i])
			}
		}
		return nil
	})
}

// TopologyFrozen snapshots o's logical graph at construction time and checks
// it stays identical (isomorphic under the identity relabeling) — PROP-G
// swaps hosts, never edges, so under pure PROP-G the slot graph is frozen
// (Theorem 2 with phi = id).
func TopologyFrozen(o *overlay.Overlay) Invariant {
	snap := o.Logical.Clone()
	phi := make([]int, snap.NumVertices())
	for i := range phi {
		phi[i] = i
	}
	return Check("topology-frozen", func() error {
		if o.Logical.NumVertices() != snap.NumVertices() {
			return fmt.Errorf("vertex count changed: %d -> %d", snap.NumVertices(), o.Logical.NumVertices())
		}
		return graph.IsomorphicUnderMapping(snap, o.Logical, phi)
	})
}

// LookupTermination builds an invariant that spot-checks DHT lookups: for
// each (src, key) pair, lookup must terminate at owner(key) within maxHops
// hops. owner is the ground-truth ownership function; lookup performs the
// routed lookup and reports the terminal slot and hop count.
func LookupTermination(name string, owner func(key uint32) int,
	lookup func(src int, key uint32) (slot, hops int, err error),
	srcs []int, keys []uint32, maxHops int) Invariant {
	return Check(name, func() error {
		for _, src := range srcs {
			for _, key := range keys {
				want := owner(key)
				got, hops, err := lookup(src, key)
				if err != nil {
					return fmt.Errorf("lookup(%d, %#x): %w", src, key, err)
				}
				if got != want {
					return fmt.Errorf("lookup(%d, %#x) terminated at slot %d, owner is %d", src, key, got, want)
				}
				if hops > maxHops {
					return fmt.Errorf("lookup(%d, %#x) took %d hops, bound is %d", src, key, hops, maxHops)
				}
			}
		}
		return nil
	})
}

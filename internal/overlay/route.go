package overlay

import "fmt"

// Routed lookup. Chord and CAN route a key the same way: greedily, one
// next-hop rule applied from the source until the key's owner. They
// differ only in that rule and in the owner function, and all read
// identifiers (or zones), never hosts — so a PROP-G exchange, which permutes
// hosts under fixed identifiers (§4.1), leaves every route intact.

// LookupResult describes one routed lookup.
type LookupResult struct {
	// Owner is the slot responsible for the key.
	Owner int
	// Hops is the number of overlay hops traversed.
	Hops int
	// Latency is the summed physical latency of the hops.
	Latency float64
}

// Route is the greedy routing loop every structured substrate shares: from
// the live slot src it steps to next(cur) until it reaches owner. Each hop
// adds Dist(cur, next) to Latency and counts one hop. Route fails on a dead
// source, when next(cur) == cur (routing is stuck) and when Hops exceeds
// maxHops.
func (o *Overlay) Route(src, owner, maxHops int, next func(cur int) int) (LookupResult, error) {
	if !o.Alive(src) {
		return LookupResult{}, fmt.Errorf("overlay: route from dead slot %d", src)
	}
	res := LookupResult{Owner: owner}
	for cur := src; cur != owner; {
		nx := next(cur)
		if nx == cur {
			return res, fmt.Errorf("overlay: routing stuck at slot %d, owner %d", cur, owner)
		}
		res.Latency += o.Dist(cur, nx)
		res.Hops++
		if res.Hops > maxHops {
			return res, fmt.Errorf("overlay: routing exceeded %d hops toward slot %d", maxHops, owner)
		}
		cur = nx
	}
	return res, nil
}

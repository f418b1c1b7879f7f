package overlay

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/rng"
)

// Routed lookup. Chord, Kademlia and CAN route a key the same way: greedily,
// one next-hop rule applied from the source until the key's owner. They
// differ only in that rule and in the owner function, and all read
// identifiers (or zones), never hosts — so a PROP-G exchange, which permutes
// hosts under fixed identifiers (§4.1), leaves every route intact.

// LookupResult describes one routed lookup.
type LookupResult struct {
	// Owner is the slot responsible for the key.
	Owner int
	// Hops is the number of overlay hops traversed.
	Hops int
	// Latency is the summed physical latency of the hops plus the
	// processing delay of every slot reached after the source.
	Latency float64
}

// Route is the greedy routing loop every structured substrate shares: from
// the live slot src it steps to next(cur) until it reaches owner. Each hop
// adds Dist(cur, next) and then proc(next) (when proc is non-nil) to
// Latency and counts one hop. Route fails on a dead source, when next(cur)
// == cur (routing is stuck) and when Hops exceeds maxHops.
func (o *Overlay) Route(src, owner, maxHops int, next func(cur int) int, proc ProcDelayFunc) (LookupResult, error) {
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
		if proc != nil {
			res.Latency += proc(nx)
		}
		res.Hops++
		if res.Hops > maxHops {
			return res, fmt.Errorf("overlay: routing exceeded %d hops toward slot %d", maxHops, owner)
		}
		cur = nx
	}
	return res, nil
}

// UniqueIDs draws n distinct uniform 32-bit identifiers, one per slot in
// slot order.
func UniqueIDs(n int, r *rng.Rand) []uint32 {
	ids := make([]uint32, n)
	taken := make(map[uint32]bool, n)
	for s := range ids {
		ids[s] = UniqueID(r, func(id uint32) bool { return taken[id] })
		taken[ids[s]] = true
	}
	return ids
}

// UniqueID draws uniform 32-bit identifiers from r until taken refuses one,
// and returns it.
func UniqueID(r *rng.Rand, taken func(id uint32) bool) uint32 {
	for {
		if id := uint32(r.Uint64()); !taken(id) {
			return id
		}
	}
}

// SortByID returns the slots 0..len(id)-1 in ascending identifier order: a
// sorted identifier ring, as Chord keeps one.
func SortByID(id []uint32) []int {
	sorted := make([]int, len(id))
	for s := range sorted {
		sorted[s] = s
	}
	sort.Slice(sorted, func(i, j int) bool { return id[sorted[i]] < id[sorted[j]] })
	return sorted
}

// SearchID returns the index in the sorted ring of the first slot whose
// identifier is >= key, or len(sorted) when there is none.
func SearchID(sorted []int, id []uint32, key uint32) int {
	return sort.Search(len(sorted), func(k int) bool { return id[sorted[k]] >= key })
}

// HasID reports whether a slot of the sorted ring has identifier key.
func HasID(sorted []int, id []uint32, key uint32) bool {
	i := SearchID(sorted, id, key)
	return i < len(sorted) && id[sorted[i]] == key
}

// InsertByID inserts slot into the sorted ring at its identifier id[slot]
// and returns the grown ring and the slot's index in it.
func InsertByID(sorted []int, id []uint32, slot int) ([]int, int) {
	i := SearchID(sorted, id, id[slot])
	return slices.Insert(sorted, i, slot), i
}

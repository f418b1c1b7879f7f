// Package chord implements the Chord distributed hash table (Stoica et al.,
// SIGCOMM '01) on top of the slot/host overlay model, as the structured
// substrate of the paper's evaluation.
//
// Identifiers live on a 2^32 ring and are properties of *slots*: when
// PROP-G "exchanges node identifiers" between two physical machines, the
// overlay simply swaps the hosts backing the two slots and every finger
// table — which is defined slot-to-slot — remains exactly correct. That is
// the paper's claim that PROP-G preserves the DHT structure, made literal.
//
// The package also provides the PNS (Proximity Neighbor Selection) variant
// used by the "combined with other recent approaches" experiments: each
// finger entry is chosen as the physically nearest node within the finger
// interval rather than the interval's first successor.
//
// Key type: Ring (identifier ring, finger tables, successor lists); its
// lookups run overlay.Route. See DESIGN.md §1 for the inventory entry and §2
// for the Fig. 6 experiments built on it.
package chord

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// Bits is the identifier width; the ring has 2^Bits positions.
const Bits = 32

// ringSize is 2^Bits as a uint64 to simplify modular arithmetic.
const ringSize = uint64(1) << Bits

// successorListLen is the number of immediate successors each node links
// to (fault tolerance; Chord's r parameter).
const successorListLen = 4

// Config parameterizes ring construction.
type Config struct {
	// PNS selects proximity neighbor selection: each finger points at the
	// physically nearest candidate in its interval instead of the first.
	PNS bool
}

// DefaultConfig mirrors a standard Chord deployment: plain (non-PNS)
// finger selection.
func DefaultConfig() Config { return Config{} }

// Ring is a built Chord overlay.
type Ring struct {
	// O is the underlying overlay; its logical edges are the union of all
	// finger and successor links (bidirectional, per the paper's §3.2
	// extended-routing-table assumption).
	O *overlay.Overlay
	// ID holds the ring identifier of each slot.
	ID []uint32
	// fingers[slot][j] is the slot the j-th finger points to (may repeat).
	fingers [][]int
	// succ[slot] lists the successorListLen immediate successor slots.
	succ [][]int
	// sorted holds slots ordered by ID for owner lookups.
	sorted []int
	cfg    Config
}

// Build constructs a Chord ring over the given hosts with distinct random
// identifiers. lat supplies physical latencies; the overlay keeps it, and
// PNS reads it from there.
func Build(hosts []int, cfg Config, lat overlay.LatencyFunc, r *rng.Rand) (*Ring, error) {
	n := len(hosts)
	if n < 2 {
		return nil, fmt.Errorf("chord: need at least 2 nodes, got %d", n)
	}
	o, err := overlay.New(hosts, lat)
	if err != nil {
		return nil, err
	}
	ring := &Ring{
		O:       o,
		ID:      uniqueIDs(n, r),
		fingers: make([][]int, n),
		succ:    make([][]int, n),
		cfg:     cfg,
	}
	ring.sorted = sortByID(ring.ID)
	ring.rebuildTables()
	return ring, nil
}

// uniqueIDs draws n distinct uniform identifiers, one per slot in slot
// order.
func uniqueIDs(n int, r *rng.Rand) []uint32 {
	ids := make([]uint32, n)
	taken := make(map[uint32]bool, n)
	for s := range ids {
		ids[s] = uniqueID(r, func(id uint32) bool { return taken[id] })
		taken[ids[s]] = true
	}
	return ids
}

// uniqueID draws uniform identifiers from r until taken refuses one, and
// returns it.
func uniqueID(r *rng.Rand, taken func(id uint32) bool) uint32 {
	for {
		if id := uint32(r.Uint64()); !taken(id) {
			return id
		}
	}
}

// sortByID returns the slots 0..len(id)-1 in ascending identifier order.
func sortByID(id []uint32) []int {
	sorted := make([]int, len(id))
	for s := range sorted {
		sorted[s] = s
	}
	sort.Slice(sorted, func(i, j int) bool { return id[sorted[i]] < id[sorted[j]] })
	return sorted
}

// searchID returns the index in the sorted ring of the first slot whose
// identifier is >= key, or len(ring.sorted) when there is none.
func (ring *Ring) searchID(key uint32) int {
	return sort.Search(len(ring.sorted), func(k int) bool { return ring.ID[ring.sorted[k]] >= key })
}

// hasID reports whether a slot of the sorted ring has identifier key.
func (ring *Ring) hasID(key uint32) bool {
	i := ring.searchID(key)
	return i < len(ring.sorted) && ring.ID[ring.sorted[i]] == key
}

// insertByID inserts slot into the sorted ring at its identifier and
// returns its index there.
func (ring *Ring) insertByID(slot int) int {
	i := ring.searchID(ring.ID[slot])
	ring.sorted = slices.Insert(ring.sorted, i, slot)
	return i
}

// rebuildTables recomputes successor lists and finger tables for all slots
// and mirrors them into the overlay's logical graph.
func (ring *Ring) rebuildTables() {
	n := len(ring.ID)
	pos := make(map[int]int, n) // slot -> index in sorted
	for i, s := range ring.sorted {
		pos[s] = i
	}
	for _, s := range ring.sorted {
		i := pos[s]
		// Successor list.
		succ := make([]int, 0, successorListLen)
		for k := 1; k <= successorListLen && k < n; k++ {
			succ = append(succ, ring.sorted[(i+k)%n])
		}
		ring.succ[s] = succ
		// Finger table: finger j targets id + 2^j.
		fingers := make([]int, Bits)
		for j := 0; j < Bits; j++ {
			start := (uint64(ring.ID[s]) + (uint64(1) << uint(j))) % ringSize
			if ring.cfg.PNS {
				end := (uint64(ring.ID[s]) + (uint64(1) << uint(j+1))) % ringSize
				fingers[j] = ring.nearestInInterval(s, start, end)
			} else {
				fingers[j] = ring.ownerOf(start)
			}
		}
		ring.fingers[s] = fingers
	}
	// Mirror into the logical graph.
	for s := 0; s < n; s++ {
		for _, t := range ring.succ[s] {
			if t != s {
				ring.O.AddEdge(s, t)
			}
		}
		for _, t := range ring.fingers[s] {
			if t != s {
				ring.O.AddEdge(s, t)
			}
		}
	}
}

// Refresh recomputes successor lists and finger tables against the current
// host mapping and rebuilds the logical link set — Chord's periodic
// stabilization. A plain ring is unchanged by it (fingers depend only on
// identifiers), but a PNS ring re-picks each finger's physically nearest
// candidate, which matters after PROP-G exchanges have moved machines
// between identifiers.
func (ring *Ring) Refresh() {
	for _, e := range ring.O.Logical.Edges() {
		ring.O.Logical.RemoveEdge(e.U, e.V)
	}
	ring.rebuildTables()
}

// ownerOf returns the slot responsible for id: the first slot whose ID is
// >= id, wrapping around the ring.
func (ring *Ring) ownerOf(id uint64) int {
	i := ring.searchID(uint32(id))
	if i == len(ring.sorted) {
		return ring.sorted[0] // wrap
	}
	return ring.sorted[i]
}

// nearestInInterval returns the slot in [start, end) (ring interval,
// possibly wrapping) physically nearest to s, the first in sorted order
// among equals; if the interval is empty it falls back to the plain finger
// ownerOf(start). This is PNS: any node in the finger's interval is a
// correct entry, so pick the closest. Only the interval's slots are read:
// sorted[lo:hi], or, wrapping zero, sorted[:hi] then sorted[lo:].
func (ring *Ring) nearestInInterval(s int, start, end uint64) int {
	lo, hi := ring.searchID(uint32(start)), ring.searchID(uint32(end))
	var spans [2][]int
	if start <= end {
		spans[0] = ring.sorted[lo:hi]
	} else {
		spans = [2][]int{ring.sorted[:hi], ring.sorted[lo:]}
	}
	best, bestD := -1, math.Inf(1)
	hs := ring.O.HostOf(s)
	for _, span := range spans {
		for _, cand := range span {
			if cand == s {
				continue
			}
			if d := ring.O.Latency(hs, ring.O.HostOf(cand)); d < bestD {
				best, bestD = cand, d
			}
		}
	}
	if best < 0 {
		return ring.ownerOf(start)
	}
	return best
}

// inInterval reports whether id lies in the half-open ring interval (a, b].
func inInterval(id, a, b uint64) bool {
	if a < b {
		return id > a && id <= b
	}
	if a > b {
		return id > a || id <= b
	}
	return true // a == b: full circle
}

// Lookup routes a query for key from the slot src by greedy
// closest-preceding-finger routing (overlay.Route). Fingers give O(log n)
// hops and the successor-only fallback O(n), so routing terminates within
// n + Bits hops.
//
// The trailing parameter is ignored. Bench-contract shim — bench/wl_chord.go
// passes nil; drop it in the next benchmark-only PR (ROADMAP item 5(g)).
func (ring *Ring) Lookup(src int, key uint32, _ ...func(int) float64) (overlay.LookupResult, error) {
	return ring.O.Route(src, ring.ownerOf(uint64(key)), len(ring.ID)+Bits,
		func(cur int) int { return ring.nextHop(cur, uint64(key)) })
}

// nextHop returns the routing step from cur toward key: the successor if
// the key lies between cur and it, else the closest preceding finger, else
// (fingers all useless) the successor — which is always strictly forward,
// so routing provably progresses.
func (ring *Ring) nextHop(cur int, key uint64) int {
	curID := uint64(ring.ID[cur])
	if len(ring.succ[cur]) > 0 {
		s0 := ring.succ[cur][0]
		if inInterval(key, curID, uint64(ring.ID[s0])) {
			return s0
		}
	}
	// Closest preceding finger: highest finger strictly inside (cur, key).
	for j := Bits - 1; j >= 0; j-- {
		f := ring.fingers[cur][j]
		if f == cur {
			continue
		}
		if inIntervalOpen(uint64(ring.ID[f]), curID, key) {
			return f
		}
	}
	// Successors alone suffice for correctness (Chord invariant).
	if len(ring.succ[cur]) > 0 {
		return ring.succ[cur][0]
	}
	return cur
}

// inIntervalOpen reports whether id lies in the open ring interval (a, b).
func inIntervalOpen(id, a, b uint64) bool {
	if a < b {
		return id > a && id < b
	}
	if a > b {
		return id > a || id < b
	}
	return id != a
}

// RandomKey returns a uniform key.
func RandomKey(r *rng.Rand) uint32 { return uint32(r.Uint64()) }

// NextHopSlot exposes a single routing decision from slot cur toward key —
// the building block for message-level simulations that interleave lookup
// hops with topology changes (see internal/livesim).
func (ring *Ring) NextHopSlot(cur int, key uint32) int {
	return ring.nextHop(cur, uint64(key))
}

// IsOwner reports whether slot s is responsible for key.
func (ring *Ring) IsOwner(s int, key uint32) bool { return ring.ownerOf(uint64(key)) == s }

// Owner exposes the slot responsible for key.
func (ring *Ring) Owner(key uint32) int { return ring.ownerOf(uint64(key)) }

// Successors returns the successor slots of s (shared storage).
func (ring *Ring) Successors(s int) []int { return ring.succ[s] }

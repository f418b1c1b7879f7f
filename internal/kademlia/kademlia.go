// Package kademlia implements the Kademlia distributed hash table
// (Maymounkov & Mazières, IPTPS '02) over the slot/host overlay model —
// the third structured substrate of the reproduction, with a routing
// geometry unlike Chord's ring or CAN's torus: the XOR metric.
//
// Kademlia matters to the paper's argument because its k-buckets hold *any*
// k contacts from each XOR subtree — the loosest routing-table constraint
// of all the classic DHTs, and therefore the most natural fit for
// proximity neighbor selection. Reproducing PROP-G here demonstrates the
// exchange protocol on a geometry where even the PNS baseline has maximal
// freedom.
//
// Identifiers are 32-bit. Node s's bucket i holds up to K contacts whose
// IDs differ from s's in bit i as the highest differing bit (i.e. XOR
// distance in [2^i, 2^(i+1))). Lookups greedily hop to the known contact
// closest to the key in XOR distance; with globally converged buckets this
// always terminates at the key's true owner.
//
// Key type: Net (the k-bucket routing state); its lookups run
// overlay.Route. See DESIGN.md §1.
package kademlia

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// Bits is the identifier width.
const Bits = 32

// bucketSize is the bucket capacity: Kademlia's k, at a common
// small-system setting.
const bucketSize = 8

// Config parameterizes construction.
type Config struct {
	// Proximity selects bucket contacts by physical nearness instead of
	// XOR closeness — Kademlia's native PNS.
	Proximity bool
}

// Net is a built Kademlia network.
type Net struct {
	// O is the underlying overlay; logical links mirror bucket contacts.
	O *overlay.Overlay
	// ID holds each slot's identifier.
	ID []uint32

	cfg     Config
	buckets [][][]int // per slot: Bits buckets of contact slots
}

// Build constructs a Kademlia network over hosts with distinct random IDs.
func Build(hosts []int, cfg Config, lat overlay.LatencyFunc, r *rng.Rand) (*Net, error) {
	n := len(hosts)
	if n < 2 {
		return nil, fmt.Errorf("kademlia: need at least 2 nodes, got %d", n)
	}
	o, err := overlay.New(hosts, lat)
	if err != nil {
		return nil, err
	}
	net := &Net{O: o, ID: overlay.UniqueIDs(n, r), cfg: cfg, buckets: make([][][]int, n)}
	net.fillBuckets()
	net.mirror()
	return net, nil
}

// bucketIndex returns which of s's buckets t belongs to: the index of the
// highest bit where their IDs differ, or -1 for identical IDs.
func bucketIndex(a, b uint32) int {
	x := a ^ b
	if x == 0 {
		return -1
	}
	return 31 - bits.LeadingZeros32(x)
}

// fillBuckets populates every node's buckets from global knowledge (the
// converged state Kademlia's iterative lookups maintain in practice). Only
// live slots participate — dead slots keep no buckets and appear in none.
func (net *Net) fillBuckets() {
	alive := net.O.AliveSlots()
	for _, s := range alive {
		rows := make([][]int, Bits)
		// Gather candidates per bucket.
		byBucket := make([][]int, Bits)
		for _, t := range alive {
			if t == s {
				continue
			}
			bi := bucketIndex(net.ID[s], net.ID[t])
			byBucket[bi] = append(byBucket[bi], t)
		}
		hs := net.O.HostOf(s)
		for bi, cands := range byBucket {
			if len(cands) == 0 {
				continue
			}
			if net.cfg.Proximity {
				sort.Slice(cands, func(i, j int) bool {
					di := net.O.Latency(hs, net.O.HostOf(cands[i]))
					dj := net.O.Latency(hs, net.O.HostOf(cands[j]))
					if di != dj {
						return di < dj
					}
					return cands[i] < cands[j]
				})
			} else {
				sort.Slice(cands, func(i, j int) bool {
					xi := net.ID[s] ^ net.ID[cands[i]]
					xj := net.ID[s] ^ net.ID[cands[j]]
					if xi != xj {
						return xi < xj
					}
					return cands[i] < cands[j]
				})
			}
			if len(cands) > bucketSize {
				cands = cands[:bucketSize]
			}
			rows[bi] = append([]int(nil), cands...)
		}
		net.buckets[s] = rows
	}
}

// mirror reflects bucket contacts into the overlay's logical graph.
func (net *Net) mirror() {
	for _, s := range net.O.AliveSlots() {
		for _, bucket := range net.buckets[s] {
			for _, t := range bucket {
				if t != s {
					net.O.AddEdge(s, t)
				}
			}
		}
	}
}

// Refresh refills every bucket against the current host mapping and
// rebuilds the logical links — bucket maintenance after PROP-G exchanges.
// Plain (XOR-ordered) networks are unchanged by it.
func (net *Net) Refresh() {
	for _, e := range net.O.Logical.Edges() {
		net.O.Logical.RemoveEdge(e.U, e.V)
	}
	net.fillBuckets()
	net.mirror()
}

// Owner returns the slot whose ID is XOR-closest to key.
func (net *Net) Owner(key uint32) int {
	best, bestX := -1, uint32(math.MaxUint32)
	for s, id := range net.ID {
		if !net.O.Alive(s) {
			continue
		}
		if x := id ^ key; x < bestX || best == -1 {
			best, bestX = s, x
		}
	}
	return best
}

// Lookup greedily routes from src to the key's owner (overlay.Route, within
// Bits + 8 hops): at each step the current node forwards to its known
// contact with the smallest XOR distance to the key. A node no contact
// improves on is a local optimum; the owner always is one, and with
// converged buckets it is the only one, so routing elsewhere is stuck.
func (net *Net) Lookup(src int, key uint32, proc overlay.ProcDelayFunc) (overlay.LookupResult, error) {
	return net.O.Route(src, net.Owner(key), Bits+8, func(cur int) int {
		best, bestX := cur, net.ID[cur]^key
		for _, bucket := range net.buckets[cur] {
			for _, t := range bucket {
				if x := net.ID[t] ^ key; x < bestX && net.O.Alive(t) {
					best, bestX = t, x
				}
			}
		}
		return best
	}, proc)
}

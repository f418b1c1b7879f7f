// Package pastry implements the Pastry distributed hash table (Rowstron &
// Druschel, Middleware '01) over the slot/host overlay model — the third
// structured substrate of the reproduction.
//
// Pastry matters to the paper for two reasons. First, it is the canonical
// system whose routing-table entries are *not* deterministic: any node with
// the right identifier prefix qualifies, so Pastry can natively apply
// Proximity Neighbor Selection — the baseline family the paper contrasts
// with. Second, it has a different routing geometry from Chord (prefix
// routing plus leaf sets), so reproducing PROP-G on it exercises the
// "deployed effortlessly on both unstructured and structured systems"
// claim beyond a single DHT.
//
// Identifiers are 32-bit, read as 8 hexadecimal digits. Each node keeps a
// leaf set (the L/2 numerically closest nodes on each side of the ring) and
// a routing table with one row per digit position: row r column c holds a
// node that shares the first r digits with the owner and has digit c at
// position r. With Proximity enabled the physically nearest qualifying
// candidate is chosen; otherwise the numerically first.
//
// Key type: Mesh (leaf sets plus prefix tables); its lookups run
// overlay.Route. See DESIGN.md §1.
package pastry

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/overlay"
	"repro/internal/rng"
)

const (
	// DigitBits is the bits per identifier digit (hexadecimal digits).
	DigitBits = 4
	// Digits is the number of digits in a 32-bit identifier.
	Digits = 32 / DigitBits
	// Cols is the number of distinct digit values per row.
	Cols = 1 << DigitBits
)

// leafSetSize is the total leaf-set size (half per side) of a standard
// small Pastry deployment.
const leafSetSize = 8

// Config parameterizes mesh construction.
type Config struct {
	// Proximity enables Pastry's native PNS: routing-table candidates are
	// chosen by physical nearness.
	Proximity bool
}

// Mesh is a built Pastry overlay.
type Mesh struct {
	// O is the underlying overlay; logical links mirror the union of leaf
	// sets and routing-table entries (bidirectional).
	O *overlay.Overlay
	// ID holds each slot's identifier.
	ID []uint32

	cfg    Config
	sorted []int       // slots by ID
	leaves [][]int     // per slot: leaf-set slots
	table  [][][]int   // per slot: [row][col] -> slot or -1
	pos    map[int]int // slot -> index in sorted
}

// Build constructs a Pastry mesh over the given hosts with distinct random
// identifiers.
func Build(hosts []int, cfg Config, lat overlay.LatencyFunc, r *rng.Rand) (*Mesh, error) {
	n := len(hosts)
	if n < 2 {
		return nil, fmt.Errorf("pastry: need at least 2 nodes, got %d", n)
	}
	o, err := overlay.New(hosts, lat)
	if err != nil {
		return nil, err
	}
	m := &Mesh{
		O:      o,
		ID:     overlay.UniqueIDs(n, r),
		cfg:    cfg,
		leaves: make([][]int, n),
		table:  make([][][]int, n),
		pos:    make(map[int]int, n),
	}
	m.sorted = overlay.SortByID(m.ID)
	for i, s := range m.sorted {
		m.pos[s] = i
	}
	m.buildLeafSets()
	m.buildTables()
	m.mirror()
	return m, nil
}

// buildLeafSets links each node to its L/2 ring neighbors per side. Only
// live slots participate: m.sorted lists exactly the live membership.
func (m *Mesh) buildLeafSets() {
	n := len(m.sorted)
	half := leafSetSize / 2
	if half > (n-1)/2 {
		half = (n - 1) / 2
		if half < 1 {
			half = 1
		}
	}
	for _, s := range m.sorted {
		i := m.pos[s]
		seen := map[int]bool{s: true}
		var leaves []int
		for k := 1; k <= half; k++ {
			for _, cand := range []int{m.sorted[(i+k)%n], m.sorted[((i-k)%n+n)%n]} {
				if !seen[cand] {
					seen[cand] = true
					leaves = append(leaves, cand)
				}
			}
		}
		sort.Ints(leaves)
		m.leaves[s] = leaves
	}
}

// digit returns the d-th hexadecimal digit of id, most significant first.
func digit(id uint32, d int) int {
	shift := uint(32 - DigitBits*(d+1))
	return int(id>>shift) & (Cols - 1)
}

// sharedPrefix returns the number of leading digits a and b share.
func sharedPrefix(a, b uint32) int {
	for d := 0; d < Digits; d++ {
		if digit(a, d) != digit(b, d) {
			return d
		}
	}
	return Digits
}

// buildTables fills each node's routing table from global knowledge (the
// simulator's equivalent of a converged Pastry join protocol).
func (m *Mesh) buildTables() {
	// Group nodes by every (prefix length, prefix value) bucket lazily:
	// for each node s and row r, candidates share digits [0,r) with s and
	// differ at r. A single pass per node over all live nodes is O(n²) —
	// fine at simulation scale.
	for _, s := range m.sorted {
		rows := make([][]int, Digits)
		for r := range rows {
			row := make([]int, Cols)
			for c := range row {
				row[c] = -1
			}
			rows[r] = row
		}
		bestD := make([][]float64, Digits)
		for r := range bestD {
			bestD[r] = make([]float64, Cols)
			for c := range bestD[r] {
				bestD[r][c] = math.Inf(1)
			}
		}
		hs := m.O.HostOf(s)
		for _, t := range m.sorted {
			if t == s {
				continue
			}
			r := sharedPrefix(m.ID[s], m.ID[t])
			if r == Digits {
				continue
			}
			c := digit(m.ID[t], r)
			if m.cfg.Proximity {
				d := m.O.Latency(hs, m.O.HostOf(t))
				if d < bestD[r][c] {
					bestD[r][c] = d
					rows[r][c] = t
				}
			} else if rows[r][c] == -1 || m.ID[t] < m.ID[rows[r][c]] {
				rows[r][c] = t
			}
		}
		m.table[s] = rows
	}
}

// mirror reflects leaf sets and routing tables into the overlay's logical
// graph (bidirectional links, per the paper's §3.2 assumption).
func (m *Mesh) mirror() {
	for _, s := range m.sorted {
		for _, l := range m.leaves[s] {
			m.O.AddEdge(s, l)
		}
		for _, row := range m.table[s] {
			for _, t := range row {
				if t >= 0 && t != s {
					m.O.AddEdge(s, t)
				}
			}
		}
	}
}

// Refresh recomputes the routing tables (and logical links) against the
// current host mapping — Pastry's routing-table maintenance. Only matters
// for Proximity meshes after PROP-G exchanges; plain meshes are unchanged.
func (m *Mesh) Refresh() {
	for _, e := range m.O.Logical.Edges() {
		m.O.Logical.RemoveEdge(e.U, e.V)
	}
	m.buildTables()
	m.mirror()
}

// ringDist is the circular distance between two identifiers.
func ringDist(a, b uint32) uint32 {
	d := a - b
	if b > a {
		d = b - a
	}
	if d > math.MaxUint32/2 {
		return math.MaxUint32 - d + 1
	}
	return d
}

// Owner returns the slot whose identifier is circularly closest to key
// (ties to the lower ID) — the node responsible for the key.
func (m *Mesh) Owner(key uint32) int {
	// Binary search the sorted ring, then compare the two flanking nodes.
	n := len(m.sorted)
	lo := overlay.SearchID(m.sorted, m.ID, key)
	best, bestDist := -1, uint32(math.MaxUint32)
	for _, i := range []int{(lo - 1 + n) % n, lo % n, (lo + 1) % n} {
		s := m.sorted[i]
		d := ringDist(m.ID[s], key)
		if d < bestDist || (d == bestDist && (best == -1 || m.ID[s] < m.ID[best])) {
			best, bestDist = s, d
		}
	}
	return best
}

// Lookup routes a query for key from src using Pastry's algorithm: deliver
// within the leaf set when possible, otherwise follow the routing-table
// entry with a longer shared prefix, otherwise fall back to any known node
// strictly closer to the key (overlay.Route, within n + Digits hops). proc,
// if non-nil, adds per-hop processing delay.
func (m *Mesh) Lookup(src int, key uint32, proc overlay.ProcDelayFunc) (overlay.LookupResult, error) {
	return m.O.Route(src, m.Owner(key), len(m.ID)+Digits,
		func(cur int) int { return m.nextHop(cur, key) }, proc)
}

// nextHop implements one Pastry routing decision at cur.
func (m *Mesh) nextHop(cur int, key uint32) int {
	// 1. Leaf set: if any leaf (or cur) is closest, go numerically closest.
	bestLeaf, bestLeafDist := cur, ringDist(m.ID[cur], key)
	for _, l := range m.leaves[cur] {
		if d := ringDist(m.ID[l], key); d < bestLeafDist ||
			(d == bestLeafDist && m.ID[l] < m.ID[bestLeaf]) {
			bestLeaf, bestLeafDist = l, d
		}
	}
	// If the key falls inside the leaf-set span, the closest leaf is the
	// right delivery point.
	if m.keyInLeafRange(cur, key) {
		return bestLeaf
	}
	// 2. Routing table: entry sharing one more digit with the key.
	r := sharedPrefix(m.ID[cur], key)
	if r < Digits {
		if t := m.table[cur][r][digit(key, r)]; t >= 0 {
			return t
		}
	}
	// 3. Rare case: any known node with shared prefix >= r that is strictly
	// numerically closer; leaf fallback included.
	curDist := ringDist(m.ID[cur], key)
	best, bestDist := cur, curDist
	consider := func(t int) {
		if t < 0 || t == cur {
			return
		}
		if sharedPrefix(m.ID[t], key) < r {
			return
		}
		if d := ringDist(m.ID[t], key); d < bestDist {
			best, bestDist = t, d
		}
	}
	for _, l := range m.leaves[cur] {
		consider(l)
	}
	for _, row := range m.table[cur] {
		for _, t := range row {
			consider(t)
		}
	}
	return best
}

// keyInLeafRange reports whether key lies within cur's leaf-set span on the
// ring (between the numerically smallest and largest leaf, passing through
// cur). A leaf set that holds every other node spans the whole ring — with
// two nodes its one leaf is both ends of the span.
func (m *Mesh) keyInLeafRange(cur int, key uint32) bool {
	n := len(m.sorted)
	if len(m.leaves[cur]) >= n-1 {
		return true
	}
	i := m.pos[cur]
	half := (len(m.leaves[cur]) + 1) / 2
	loSlot := m.sorted[((i-half)%n+n)%n]
	hiSlot := m.sorted[(i+half)%n]
	lo, hi := m.ID[loSlot], m.ID[hiSlot]
	if lo <= hi {
		return key >= lo && key <= hi
	}
	return key >= lo || key <= hi // wraps zero
}

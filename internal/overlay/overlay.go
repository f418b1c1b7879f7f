// Package overlay provides the logical-overlay model shared by every P2P
// system in the reproduction (Gnutella, Chord, CAN) and the two exchange
// primitives of the PROP protocols.
//
// The central idea is the slot/host split. An overlay is a logical graph
// over *slots* — stable logical positions (a Gnutella peer's place in the
// random graph, a Chord identifier, a CAN zone) — plus a bijection from
// slots onto physical *hosts* of the transit-stub network. Latency between
// two slots is the physical latency between their current hosts.
//
//   - PROP-G ("exchange all neighbors", i.e. exchange positions and node
//     identifiers) is exactly SwapHosts(u, v): the logical graph is
//     untouched, so Theorem 2 (isomorphism) holds by construction.
//   - PROP-O ("exchange m neighbors each") is ExchangeNeighbors(u, v, A, B):
//     a degree-preserving rewiring that never touches edges on the probing
//     walk path, so Theorem 1 (connectivity persistence) holds.
//
// Key types: Overlay (slots, hosts, the logical graph) and Stats (exchange
// outcome counters sampled by the observability layer, DESIGN.md §8). The
// slot/host model is DESIGN.md §1; flooding lookup lives in lookup.go.
package overlay

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/rng"
)

// LatencyFunc reports the physical latency in milliseconds between two
// hosts: non-negative or +Inf, never NaN (floodRun). netsim.Oracle.Latency
// satisfies this signature. It must be pure for the overlay's lifetime — the
// same answer for the same ordered host pair — because floods read edge
// latencies cached from it (floodView, lookup.go).
type LatencyFunc func(hostA, hostB int) float64

// Stats tallies the overlay's topology mutations for the observability
// layer (DESIGN.md §8). Mutations run on the single-threaded simulation
// engine, so plain integers suffice; the experiment harness samples the
// struct on sim-clock ticks to build accept/reject time series.
type Stats struct {
	// Swaps counts executed PROP-G host swaps.
	Swaps uint64
	// SwapsRejected counts SwapHosts calls refused by validation.
	SwapsRejected uint64
	// NeighborExchanges counts executed PROP-O trades.
	NeighborExchanges uint64
	// ExchangesRejected counts ExchangeNeighbors calls refused by the §3.1
	// constraint checks (dead/duplicate/adjacent/on-path neighbors).
	ExchangesRejected uint64
	// EdgesRewired counts logical edges moved by executed trades (give +
	// take per accepted exchange).
	EdgesRewired uint64
}

// Overlay is a logical topology mapped onto physical hosts.
type Overlay struct {
	// Logical is the overlay graph over slots. Edge weights are fixed at 1;
	// latency is always derived from the host mapping, never stored in the
	// graph (it would go stale on every exchange).
	Logical *graph.Graph

	// Stats accumulates mutation counts; see Stats.
	Stats Stats

	hostOf     []int       // slot -> physical host, -1 for dead slots
	slotOfHost map[int]int // physical host -> slot
	alive      []bool
	aliveCount int
	crashed    map[int]bool // dead slots that died crash-stop, stale edges allowed
	lat        LatencyFunc

	// aliveIdx caches the live slots in ascending order for AliveSlotAt once
	// some slot is dead; slot births and deaths empty it (rebuilt on demand).
	aliveIdx []int

	// floodPool recycles flooding-query scratch (see lookup.go) across the
	// concurrent metric evaluators sharing this overlay.
	floodPool sync.Pool

	// view caches the live arcs' latencies for floods; hostVer counts the
	// writes to hostOf/alive (SwapHosts, AddSlot, kill) and, with the logical
	// graph's version, tells a flood when view is stale (see lookup.go).
	view    floodView
	hostVer uint64
}

// Scratch holds the reusable buffers of one driver's probe cycle, so the
// neighbor-iterating primitives allocate nothing once it has grown to the
// local degree. The zero value is ready. It belongs to one driver — core's
// event goroutine, propnode under its runtime lock — never to the Overlay,
// whose read-only queries (floods, lookups) run concurrently. What a call
// leaves in it is valid until the next call taking the same Scratch.
type Scratch struct {
	Nbrs, Cand []int // neighbor lists and candidate sets
	Path       []int // the walk in flight
	// Pairs lists the host pairs of the evaluation in flight in measurement
	// order (SwapPairs, TradePairs), a before-leg and its after-leg per moved
	// entry; RTT is one slot per pair for the caller. Legs[j] = {owner,
	// neighbor} names the slots of before-leg Pairs[2j], so a caller that
	// remembers RTTs finds the owner's entry: one owner's legs are
	// consecutive, in ascending neighbor order. int32: every agent of the
	// live runtime keeps a Scratch.
	Pairs [][2]int
	RTT   []float64
	Legs  [][2]int32
}

// setPairs installs an evaluation's pair and leg lists and sizes RTT to
// match.
func (sc *Scratch) setPairs(pairs [][2]int, legs [][2]int32) {
	sc.Pairs, sc.Legs = pairs, legs
	sc.RTT = slices.Grow(sc.RTT[:0], len(pairs))[:len(pairs)]
}

// New creates an overlay with one slot per entry of hosts, each slot i
// attached to hosts[i], and no logical edges. Hosts must be distinct.
func New(hosts []int, lat LatencyFunc) (*Overlay, error) {
	if lat == nil {
		return nil, fmt.Errorf("overlay: nil latency function")
	}
	o := &Overlay{
		Logical:    graph.New(len(hosts)),
		hostOf:     make([]int, len(hosts)),
		slotOfHost: make(map[int]int, len(hosts)),
		alive:      make([]bool, len(hosts)),
		aliveCount: len(hosts),
		lat:        lat,
	}
	for slot, h := range hosts {
		if _, dup := o.slotOfHost[h]; dup {
			return nil, fmt.Errorf("overlay: host %d attached to two slots", h)
		}
		o.hostOf[slot] = h
		o.slotOfHost[h] = slot
		o.alive[slot] = true
	}
	return o, nil
}

// NumSlots returns the total slot count, including dead slots.
func (o *Overlay) NumSlots() int { return len(o.hostOf) }

// NumAlive returns the number of live slots.
func (o *Overlay) NumAlive() int { return o.aliveCount }

// Alive reports whether slot u is live.
func (o *Overlay) Alive(u int) bool {
	return u >= 0 && u < len(o.alive) && o.alive[u]
}

// AliveSlots returns all live slot IDs in ascending order.
func (o *Overlay) AliveSlots() []int {
	out := make([]int, 0, o.aliveCount)
	for s, a := range o.alive {
		if a {
			out = append(out, s)
		}
	}
	return out
}

// AliveSlotAt returns the k-th live slot in ascending order, 0 <= k <
// NumAlive() — AliveSlots()[k] in O(1). It may rebuild the cached index, so
// unlike the read-only queries it belongs to the mutating goroutine.
func (o *Overlay) AliveSlotAt(k int) int {
	if k < 0 || k >= o.aliveCount {
		panic(fmt.Sprintf("overlay: AliveSlotAt(%d) with %d live slots", k, o.aliveCount))
	}
	if o.aliveCount == len(o.alive) {
		return k
	}
	if len(o.aliveIdx) == 0 {
		for s, a := range o.alive {
			if a {
				o.aliveIdx = append(o.aliveIdx, s)
			}
		}
	}
	return o.aliveIdx[k]
}

// HostOf returns the physical host currently backing slot u, or -1 for a
// dead or out-of-range slot.
func (o *Overlay) HostOf(u int) int {
	if !o.Alive(u) {
		return -1
	}
	return o.hostOf[u]
}

// SlotOfHost returns the slot a host currently backs, or -1 if none.
func (o *Overlay) SlotOfHost(h int) int {
	if s, ok := o.slotOfHost[h]; ok {
		return s
	}
	return -1
}

// Hosts returns the hosts backing all live slots.
func (o *Overlay) Hosts() []int {
	out := make([]int, 0, o.aliveCount)
	for s, a := range o.alive {
		if a {
			out = append(out, o.hostOf[s])
		}
	}
	return out
}

// Dist returns the physical latency between the hosts of slots u and v.
// Both slots must be alive.
func (o *Overlay) Dist(u, v int) float64 {
	if !o.Alive(u) || !o.Alive(v) {
		panic(fmt.Sprintf("overlay: Dist(%d,%d) on dead slot", u, v))
	}
	return o.lat(o.hostOf[u], o.hostOf[v])
}

// Latency returns the latency between two hosts through the overlay's
// LatencyFunc, whether or not they back a slot: what a host measures before
// its slot exists (CAN's PIS landmarks, a SAT-Match probe).
func (o *Overlay) Latency(hostA, hostB int) float64 { return o.lat(hostA, hostB) }

// NeighborLatencySum returns Σ_{i ∈ N(u)} d(u, i): the quantity each PROP
// node maintains about its own neighborhood (§3.2). Crashed neighbors whose
// stale edges have not been evicted yet contribute nothing — a dead host has
// no measurable latency.
func (o *Overlay) NeighborLatencySum(u int) float64 {
	sum := 0.0
	o.Logical.VisitNeighbors(u, func(v int, _ float64) bool {
		if o.Alive(v) {
			sum += o.Dist(u, v)
		}
		return true
	})
	return sum
}

// AddEdge inserts a logical link between slots u and v.
func (o *Overlay) AddEdge(u, v int) error {
	if !o.Alive(u) || !o.Alive(v) {
		return fmt.Errorf("overlay: AddEdge(%d,%d) on dead slot", u, v)
	}
	return o.Logical.AddEdge(u, v, 1)
}

// RemoveEdge deletes a logical link; it reports whether it existed.
func (o *Overlay) RemoveEdge(u, v int) bool { return o.Logical.RemoveEdge(u, v) }

// Neighbors returns the live logical neighbors of slot u.
func (o *Overlay) Neighbors(u int) []int { return o.Logical.Neighbors(u) }

// Degree returns the logical degree of slot u.
func (o *Overlay) Degree(u int) int { return o.Logical.Degree(u) }

// SwapHosts exchanges the physical hosts of slots u and v — the PROP-G
// peer-exchange. The logical graph (and therefore every routing table that
// is defined in terms of slots) is untouched.
func (o *Overlay) SwapHosts(u, v int) error {
	if !o.Alive(u) || !o.Alive(v) {
		o.Stats.SwapsRejected++
		return fmt.Errorf("overlay: SwapHosts(%d,%d) on dead slot", u, v)
	}
	if u == v {
		o.Stats.SwapsRejected++
		return fmt.Errorf("overlay: SwapHosts with identical slots %d", u)
	}
	hu, hv := o.hostOf[u], o.hostOf[v]
	o.hostOf[u], o.hostOf[v] = hv, hu
	o.slotOfHost[hu], o.slotOfHost[hv] = v, u
	o.hostVer++
	o.Stats.Swaps++
	return nil
}

// ExchangeNeighbors performs the PROP-O peer-exchange: slot u hands the
// neighbors in give to v, and v hands the neighbors in take to u. The
// operation enforces the paper's §3.1 constraints:
//
//   - |give| == |take| > 0 (equal numbers, so degrees are preserved);
//   - give ⊆ N(u)\{v}, take ⊆ N(v)\{u};
//   - no moved neighbor may already be adjacent to (or equal to) its new
//     endpoint, which would silently merge edges and break degrees;
//   - no moved neighbor may appear in forbidden (the u–v walk path), which
//     is what keeps the overlay connected (Theorem 1).
//
// On success the edges {u,a} become {v,a} for a ∈ give and {v,b} become
// {u,b} for b ∈ take. The operation is all-or-nothing.
func (o *Overlay) ExchangeNeighbors(u, v int, give, take []int, forbidden []int) error {
	if err := o.exchangeNeighbors(u, v, give, take, forbidden); err != nil {
		o.Stats.ExchangesRejected++
		return err
	}
	o.Stats.NeighborExchanges++
	o.Stats.EdgesRewired += uint64(len(give) + len(take))
	return nil
}

// exchangeNeighbors validates and applies the trade; ExchangeNeighbors
// wraps it to keep the Stats accounting in one place.
func (o *Overlay) exchangeNeighbors(u, v int, give, take []int, forbidden []int) error {
	if !o.Alive(u) || !o.Alive(v) {
		return fmt.Errorf("overlay: ExchangeNeighbors(%d,%d) on dead slot", u, v)
	}
	if u == v {
		return fmt.Errorf("overlay: ExchangeNeighbors with identical slots %d", u)
	}
	if len(give) == 0 || len(give) != len(take) {
		return fmt.Errorf("overlay: exchange sizes |give|=%d |take|=%d must be equal and positive",
			len(give), len(take))
	}
	banned := make(map[int]bool, len(forbidden)+2)
	for _, p := range forbidden {
		banned[p] = true
	}
	seen := make(map[int]bool, len(give)+len(take))
	for _, a := range give {
		if err := o.checkMove(u, v, a, banned); err != nil {
			return err
		}
		if seen[a] {
			return fmt.Errorf("overlay: neighbor %d listed twice", a)
		}
		seen[a] = true
	}
	for _, b := range take {
		if err := o.checkMove(v, u, b, banned); err != nil {
			return err
		}
		if seen[b] {
			return fmt.Errorf("overlay: neighbor %d listed twice", b)
		}
		seen[b] = true
	}
	// All validated; apply. (Validation guarantees no step can fail.)
	for _, a := range give {
		o.Logical.RemoveEdge(u, a)
		o.Logical.MustAddEdge(v, a, 1)
	}
	for _, b := range take {
		o.Logical.RemoveEdge(v, b)
		o.Logical.MustAddEdge(u, b, 1)
	}
	return nil
}

// checkMove validates relocating edge {from,x} to {to,x}.
func (o *Overlay) checkMove(from, to, x int, banned map[int]bool) error {
	if !o.Alive(x) {
		return fmt.Errorf("overlay: exchanged neighbor %d is dead", x)
	}
	if x == from || x == to {
		return fmt.Errorf("overlay: exchanged neighbor %d is an endpoint", x)
	}
	if !o.Logical.HasEdge(from, x) {
		return fmt.Errorf("overlay: %d is not a neighbor of %d", x, from)
	}
	if o.Logical.HasEdge(to, x) {
		return fmt.Errorf("overlay: %d already adjacent to %d; move would merge edges", x, to)
	}
	if banned[x] {
		return fmt.Errorf("overlay: neighbor %d lies on the probing path", x)
	}
	return nil
}

// TradePairs lists into sc the host pairs a PROP-O evaluation measures —
// how a real peer evaluates Var from (noisy) probe RTTs: per moved neighbor
// its link as it stands, then as it would be, (u,a),(v,a) for a ∈ give and
// (v,b),(u,b) for b ∈ take. All slots must be alive, and give and take
// ascending, as SelectTrade returns them.
func (o *Overlay) TradePairs(u, v int, give, take []int, sc *Scratch) {
	hu, hv := o.hostOf[u], o.hostOf[v]
	pairs, legs := sc.Pairs[:0], sc.Legs[:0]
	for _, a := range give {
		pairs = append(pairs, [2]int{hu, o.hostOf[a]}, [2]int{hv, o.hostOf[a]})
		legs = append(legs, [2]int32{int32(u), int32(a)})
	}
	for _, b := range take {
		pairs = append(pairs, [2]int{hv, o.hostOf[b]}, [2]int{hu, o.hostOf[b]})
		legs = append(legs, [2]int32{int32(v), int32(b)})
	}
	sc.setPairs(pairs, legs)
}

// TradeVar folds the RTTs of a TradePairs list into Var.
func TradeVar(rtt []float64) float64 {
	gain := 0.0
	for k := 0; k+1 < len(rtt); k += 2 {
		gain += rtt[k] - rtt[k+1]
	}
	return gain
}

// SwapPairs lists into sc the host pairs a PROP-G evaluation measures — how
// a real peer evaluates Var from (noisy) probe RTTs: per live neighbor of u,
// then of v, its link before the swap and after it.
func (o *Overlay) SwapPairs(u, v int, sc *Scratch) {
	if !o.Alive(u) || !o.Alive(v) {
		panic(fmt.Sprintf("overlay: SwapPairs(%d,%d) on dead slot", u, v))
	}
	// Sized for every edge and written by index: appending cost this loop
	// about twice the time.
	n := o.Logical.Degree(u) + o.Logical.Degree(v)
	pairs := slices.Grow(sc.Pairs[:0], 2*n)[:2*n]
	legs := slices.Grow(sc.Legs[:0], n)[:n]
	m := 0
	for _, xy := range [2][2]int{{u, v}, {v, u}} {
		x, y := xy[0], xy[1] // x's neighborhood, y's host moving in
		hx, hy := o.hostOf[x], o.hostOf[y]
		// AppendNeighbors lists in sorted order — map order must not leak into
		// the measurement sequence: a measurement may be noisy (consuming one
		// RNG draw per pair) and float summation is order-sensitive, so an
		// unspecified order would make Var, and with it the whole run,
		// nondeterministic. Crashed neighbors with stale edges are skipped:
		// their hosts are gone, so they affect neither side of the swap.
		sc.Nbrs = o.Logical.AppendNeighbors(sc.Nbrs[:0], x)
		for _, i := range sc.Nbrs {
			if !o.Alive(i) {
				continue
			}
			hi, after := o.hostOf[i], o.hostOf[i]
			if i == y {
				after = hx // y's host after the swap; d is symmetric so value is unchanged
			}
			pairs[2*m], pairs[2*m+1] = [2]int{hx, hi}, [2]int{hy, after}
			legs[m] = [2]int32{int32(x), int32(i)}
			m++
		}
	}
	sc.setPairs(pairs[:2*m], legs[:m])
}

// SwapVar folds the RTTs of a SwapPairs list into Var: Σ before − Σ after.
func SwapVar(rtt []float64) float64 {
	before, after := 0.0, 0.0
	for k := 0; k+1 < len(rtt); k += 2 {
		before += rtt[k]
		after += rtt[k+1]
	}
	return before - after
}

// RandomWalk performs the TTL-limited random contact of §3.2: starting at
// slot start, the first hop is firstHop (chosen by the caller from the
// neighborQ), and each later hop is a WalkStep. The walk succeeds when
// exactly ttl hops have been taken; it fails if the walk gets stuck early.
// The returned path includes both endpoints: path[0] == start,
// path[len-1] == target. It is sc.Path; a refused first hop returns nil.
func (o *Overlay) RandomWalk(start, firstHop, ttl int, r *rng.Rand, sc *Scratch) (path []int, ok bool) {
	if ttl < 1 || !o.Alive(start) || !o.Alive(firstHop) {
		return nil, false
	}
	if !o.Logical.HasEdge(start, firstHop) {
		return nil, false
	}
	sc.Path = append(sc.Path[:0], start, firstHop)
	for hop := 1; hop < ttl; hop++ {
		next, ok := o.WalkStep(sc.Path[len(sc.Path)-1], sc.Path, r, sc)
		if !ok {
			return sc.Path, false
		}
		sc.Path = append(sc.Path, next)
	}
	return sc.Path, true
}

// WalkStep is one forwarding decision of the §3.2 walk: from slot cur, pick
// a uniformly random live neighbor that is not already on path ("add an
// identifier … to avoid repetitive forwarding"). ok is false when the walk
// is stuck. Candidates are considered in ascending slot order, so the pick
// is a pure function of the overlay, the path and r's state — the
// sequential engine iterates it (RandomWalk) and the live runtime calls it
// once per forwarded message.
func (o *Overlay) WalkStep(cur int, path []int, r *rng.Rand, sc *Scratch) (next int, ok bool) {
	sc.Cand = o.Logical.AppendNeighbors(sc.Cand[:0], cur)
	candidates := sc.Cand[:0]
	for _, nb := range sc.Cand {
		if o.Alive(nb) && !slices.Contains(path, nb) { // ≤ TTL+1 entries: a scan beats a set
			candidates = append(candidates, nb)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[r.Intn(len(candidates))], true
}

// MeanLinkLatency returns the average physical latency of the live logical
// links — the numerator of the paper's stretch metric.
func (o *Overlay) MeanLinkLatency() float64 {
	sum, count := 0.0, 0
	for _, e := range o.Logical.Edges() {
		if o.Alive(e.U) && o.Alive(e.V) {
			sum += o.Dist(e.U, e.V)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Stretch returns the paper's §4.2 metric: average logical link latency over
// average physical link latency.
func (o *Overlay) Stretch(meanPhysicalLink float64) float64 {
	if meanPhysicalLink <= 0 {
		return 0
	}
	return o.MeanLinkLatency() / meanPhysicalLink
}

// Connected reports whether the subgraph induced by live slots is connected.
func (o *Overlay) Connected() bool { return len(o.ComponentRoots()) <= 1 }

// ComponentRoots returns the smallest slot of each connected component of
// the subgraph induced by live slots, in ascending order (none when no slot
// is live): one breadth-first walk that never crosses a dead slot, an
// unpurged crash corpse included.
func (o *Overlay) ComponentRoots() []int {
	seen := make([]bool, len(o.alive))
	var roots, queue []int
	visit := func(v int, _ float64) bool {
		if o.alive[v] && !seen[v] {
			seen[v] = true
			queue = append(queue, v)
		}
		return true
	}
	for s, a := range o.alive {
		if !a || seen[s] {
			continue
		}
		roots = append(roots, s)
		seen[s] = true
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			o.Logical.VisitNeighbors(queue[head], visit)
		}
	}
	return roots
}

// AddSlot creates a new live slot attached to host and returns its ID. The
// host must not already back a slot.
func (o *Overlay) AddSlot(host int) (int, error) {
	if s, ok := o.slotOfHost[host]; ok && o.Alive(s) {
		return -1, fmt.Errorf("overlay: host %d already backs slot %d", host, s)
	}
	slot := o.Logical.AddVertex()
	o.hostOf = append(o.hostOf, host)
	o.alive = append(o.alive, true)
	o.slotOfHost[host] = slot
	o.aliveCount++
	o.aliveIdx = o.aliveIdx[:0]
	o.hostVer++
	return slot, nil
}

// RemoveSlot kills slot u: all its logical edges are dropped and its host
// is released. Neighbor repair (reconnecting the survivors) is the
// responsibility of the specific overlay protocol.
func (o *Overlay) RemoveSlot(u int) error {
	if !o.Alive(u) {
		return fmt.Errorf("overlay: RemoveSlot(%d) on dead slot", u)
	}
	for _, v := range o.Logical.Neighbors(u) {
		o.Logical.RemoveEdge(u, v)
	}
	o.kill(u)
	return nil
}

// CrashSlot kills slot u crash-stop: the host is released and the slot goes
// dead immediately, but — unlike the graceful RemoveSlot — its logical edges
// are left in place. Survivors keep stale references to the corpse until
// they notice (liveness eviction in internal/core, or a Membership.Repair
// round) and the corpse is purged with PurgeCrashed. CheckInvariants tolerates
// the stale edges only while the slot is flagged crashed.
func (o *Overlay) CrashSlot(u int) error {
	if !o.Alive(u) {
		return fmt.Errorf("overlay: CrashSlot(%d) on dead slot", u)
	}
	o.kill(u)
	if o.crashed == nil {
		o.crashed = make(map[int]bool)
	}
	o.crashed[u] = true
	return nil
}

// kill releases live slot u's host and marks the slot dead.
func (o *Overlay) kill(u int) {
	delete(o.slotOfHost, o.hostOf[u])
	o.hostOf[u] = -1
	o.alive[u] = false
	o.aliveCount--
	o.aliveIdx = o.aliveIdx[:0]
	o.hostVer++
}

// CrashedSlots returns the unpurged crashed slots in ascending order.
func (o *Overlay) CrashedSlots() []int {
	if len(o.crashed) == 0 {
		return nil
	}
	out := make([]int, 0, len(o.crashed))
	for s := range o.alive {
		if o.crashed[s] {
			out = append(out, s)
		}
	}
	return out
}

// PurgeCrashed completes the death of a crashed slot: every stale edge is
// removed and the crashed flag cleared, leaving the slot indistinguishable
// from a graceful leave. Repair paths call this once the survivors have been
// given replacement links.
func (o *Overlay) PurgeCrashed(u int) error {
	if !o.crashed[u] {
		return fmt.Errorf("overlay: PurgeCrashed(%d): slot is not crashed", u)
	}
	for _, v := range o.Logical.Neighbors(u) {
		o.Logical.RemoveEdge(u, v)
	}
	delete(o.crashed, u)
	return nil
}

// EvictDeadNeighbors removes u's logical edges to dead slots — the liveness
// eviction primitive: a node that times out probing a neighbor drops the
// stale reference. It returns the number of edges evicted.
func (o *Overlay) EvictDeadNeighbors(u int) int {
	if len(o.crashed) == 0 {
		return 0 // only a crash leaves edges to a dead slot behind (CheckInvariants)
	}
	for evicted := 0; ; evicted++ {
		dead := -1
		o.Logical.VisitNeighbors(u, func(v int, _ float64) bool {
			if !o.Alive(v) {
				dead = v
			}
			return dead < 0
		})
		if dead < 0 {
			return evicted
		}
		o.Logical.RemoveEdge(u, dead)
	}
}

// CheckInvariants verifies the overlay's structural invariants — the
// executable form of the slot/host model's contract, evaluated online by
// the auditor (internal/audit) after every PROP exchange:
//
//   - slot↔host is a bijection on live slots: every live slot has a
//     distinct host, slotOfHost inverts hostOf exactly, and no dead slot
//     retains a host;
//   - aliveCount agrees with the alive mask;
//   - the logical graph covers exactly the slot ID space and no edge
//     touches a dead slot, except that a slot flagged crashed (CrashSlot)
//     may keep stale edges until it is purged.
//
// It returns the first violation found, or nil.
func (o *Overlay) CheckInvariants() error {
	if len(o.hostOf) != len(o.alive) {
		return fmt.Errorf("overlay: %d host entries vs %d alive entries", len(o.hostOf), len(o.alive))
	}
	if o.Logical.NumVertices() != len(o.hostOf) {
		return fmt.Errorf("overlay: logical graph has %d vertices, %d slots exist",
			o.Logical.NumVertices(), len(o.hostOf))
	}
	count := 0
	for s, a := range o.alive {
		if !a {
			if o.hostOf[s] != -1 {
				return fmt.Errorf("overlay: dead slot %d still holds host %d", s, o.hostOf[s])
			}
			if o.Logical.Degree(s) != 0 && !o.crashed[s] {
				return fmt.Errorf("overlay: dead slot %d has %d logical edges", s, o.Logical.Degree(s))
			}
			continue
		}
		if o.crashed[s] {
			return fmt.Errorf("overlay: slot %d flagged crashed but alive", s)
		}
		count++
		h := o.hostOf[s]
		if h < 0 {
			return fmt.Errorf("overlay: live slot %d has no host", s)
		}
		back, ok := o.slotOfHost[h]
		if !ok {
			return fmt.Errorf("overlay: host %d of slot %d missing from reverse map", h, s)
		}
		if back != s {
			return fmt.Errorf("overlay: host %d maps back to slot %d, not %d (bijection broken)", h, back, s)
		}
	}
	if count != o.aliveCount {
		return fmt.Errorf("overlay: aliveCount %d, counted %d live slots", o.aliveCount, count)
	}
	if len(o.slotOfHost) != count {
		return fmt.Errorf("overlay: reverse map holds %d hosts, %d slots are live (bijection broken)",
			len(o.slotOfHost), count)
	}
	return nil
}

// Clone returns a deep copy sharing only the latency function.
func (o *Overlay) Clone() *Overlay {
	c := &Overlay{
		Logical:    o.Logical.Clone(),
		Stats:      o.Stats,
		hostOf:     append([]int(nil), o.hostOf...),
		slotOfHost: make(map[int]int, len(o.slotOfHost)),
		alive:      append([]bool(nil), o.alive...),
		aliveCount: o.aliveCount,
		lat:        o.lat,
	}
	for h, s := range o.slotOfHost {
		c.slotOfHost[h] = s
	}
	if len(o.crashed) > 0 {
		c.crashed = make(map[int]bool, len(o.crashed))
		for s := range o.crashed {
			c.crashed[s] = true
		}
	}
	return c
}

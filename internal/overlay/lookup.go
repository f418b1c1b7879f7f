package overlay

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// floodView is the overlay's edge-latency snapshot, the only thing a flood
// traverses: compressed sparse rows over the live arcs of the logical graph
// (both endpoints alive), neighbours ascending as in graph.Graph, with
// w[u→nb] = lat(hostOf[u], hostOf[nb]) — one entry per direction, in the
// argument order a per-edge call would use, so a flood's float arithmetic
// does not depend on whether it reads w or asks lat. Dead slots have empty
// rows. LatencyFunc is pure, so the arrays are a function of (logical graph,
// slot→host map, alive mask) and stay exact until one of those moves.
//
// stamp names the overlay state the arrays describe: Logical.Version() +
// hostVer + 1, strictly increasing with every mutation; 0 means never built.
// The first flood to see a stale stamp rebuilds under mu — once per overlay
// state, so the lat calls a run makes are a function of its seed — in place
// in the same backing arrays, then publishes with one store of stamp.
// Reusing the arrays is safe because queries never overlap mutations
// (DESIGN.md §7): every flood in flight started after the last mutation, so
// it either waits on mu or has already seen the new stamp.
//
// orderFree is a fact about the arrays, published with them, that floodPoint
// needs: sums of arc weights do not depend on the order of the additions, and
// an arc weighs the same in both directions. It holds when every w is an
// integer in [0, 2³¹) — negative, fractional, NaN and +Inf fail — there are at
// most 2²¹ slots, so a path's sum, and two of them added, stay below 2⁵³ where
// float64 addition of integers is exact, and w[u→nb] == w[nb→u] for every
// arc. Every netsim preset has it: links weigh 5/20/50 ms, and oracle
// distances over an undirected graph are symmetric.
type floodView struct {
	mu        sync.Mutex
	stamp     atomic.Uint64
	off       []int32 // len NumSlots()+1
	nbr       []int32
	w         []float64
	orderFree bool
}

// floodArcs returns the flood view of the current overlay state, rebuilding
// it first if a mutation happened since the last flood.
func (o *Overlay) floodArcs() (off, nbr []int32, w []float64) {
	v := &o.view
	if want := o.Logical.Version() + o.hostVer + 1; v.stamp.Load() != want {
		o.rebuildFloodView(want)
	}
	return v.off, v.nbr, v.w
}

// rebuildFloodView refills o.view from the current state and stamps it want,
// unless a concurrent flood already has: one lat call per live arc, no
// allocation once the arrays have reached the overlay's size.
func (o *Overlay) rebuildFloodView(want uint64) {
	v := &o.view
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.stamp.Load() == want {
		return
	}
	n := len(o.hostOf)
	if cap(v.off) < n+1 {
		v.off = make([]int32, n+1)
	}
	if m := 2 * o.Logical.NumEdges(); cap(v.nbr) < m {
		v.nbr = make([]int32, 0, m)
		v.w = make([]float64, 0, m)
	}
	off, nbr, w := v.off[:n+1], v.nbr[:0], v.w[:0]
	orderFree := n <= 1<<21
	for u := 0; u < n; u++ {
		off[u] = int32(len(nbr))
		if !o.alive[u] {
			continue
		}
		hu := o.hostOf[u]
		o.Logical.VisitNeighbors(u, func(nb int, _ float64) bool {
			if o.alive[nb] {
				x := o.lat(hu, o.hostOf[nb])
				nbr = append(nbr, int32(nb))
				w = append(w, x)
				orderFree = orderFree && x >= 0 && x < 1<<31 && x == math.Trunc(x)
				if orderFree && nb < u {
					// nb's row is complete; the reverse arc is u's entry in it.
					i, ok := slices.BinarySearch(nbr[off[nb]:off[nb+1]], int32(u))
					orderFree = ok && w[int(off[nb])+i] == x
				}
			}
			return true
		})
	}
	off[n] = int32(len(nbr))
	v.off, v.nbr, v.w, v.orderFree = off, nbr, w, orderFree
	v.stamp.Store(want)
}

// floodScratch is the reusable working set of one slot-level Dijkstra: the
// tentative-distance array and the queue (graph.RadixQueue), and a second pair for
// the search floodPoint grows back from the destination. Recycled through a
// sync.Pool so concurrent lookup evaluators (metrics fans out one goroutine
// per worker) each reuse their own buffers, making flooding queries
// allocation-free after warm-up.
type floodScratch struct {
	dist, distB []float64
	q, qB       graph.RadixQueue
}

// floodPool hands out scratch sized to at least n slots.
func (o *Overlay) floodGet() *floodScratch {
	n := len(o.hostOf)
	s, _ := o.floodPool.Get().(*floodScratch)
	if s == nil {
		s = &floodScratch{}
	}
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.distB = make([]float64, n)
		s.q.Grow(n)
		s.qB.Grow(n)
	}
	s.dist = s.dist[:n]
	s.distB = s.distB[:n]
	return s
}

func (o *Overlay) floodPut(s *floodScratch) { o.floodPool.Put(s) }

// floodRun settles slots in nondecreasing first-arrival order from src over
// the flood view. It stops when dst settles and returns its arrival time;
// with dst = -1 it computes the full arrival vector into s.dist and returns
// +Inf. Dead slots and unreachable slots keep +Inf. The loop makes no call:
// adjacency, liveness and latency come from the view, and a slot reached
// adds delayByHost[its host] (nothing when delayByHost is nil).
//
// Precondition: arc latencies and delayByHost entries are non-negative or
// +Inf, never NaN, so pops are monotone, which the queue relies on. No result
// depends on the order in which slots tied at one arrival time settle: a
// slot's arrival is the minimum over paths from src of the left-folded sum
// fl(fl(fl(0+w₁)+p₁)+w₂)…, and because rounding is monotone (a ≤ b ⇒
// fl(a+w) ≤ fl(b+w)) and no term is negative, a slot still queued when u
// settles can offer u nothing below dist[u] — u holds that minimum whichever
// tie went first. The early exit at dst returns that minimum for the same
// reason, and floodRun hands out no predecessors.
func (o *Overlay) floodRun(src, dst int, delayByHost []float64, s *floodScratch) float64 {
	off, nbr, w := o.floodArcs()
	dist, q := s.dist, &s.q
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	q.Reset()
	dist[src] = 0
	q.Push(int32(src), 0)
	for u, ok := q.Pop(dist); ok; u, ok = q.Pop(dist) {
		du := dist[u]
		if int(u) == dst {
			return du
		}
		nbs := nbr[off[u]:off[u+1]]
		ws := w[off[u]:off[u+1]]
		for i, nb := range nbs {
			nd := du + ws[i]
			if delayByHost != nil {
				nd += delayByHost[o.hostOf[nb]]
			}
			if nd < dist[nb] {
				dist[nb] = nd
				q.Push(nb, nd)
			}
		}
	}
	return math.Inf(1)
}

// floodPoint returns what floodRun returns from src to dst, on an order-free
// view (floodView): it grows one Dijkstra ball forward from src and one
// backward from dst over the same arcs — they weigh the same both ways —
// always expanding the side whose last popped arrival is smaller; on a
// hub-rich overlay two balls of half the radius hold far fewer slots than one
// that reaches dst. mu is the least src→dst sum seen: each improvement of a
// slot's arrival on one side is added to its arrival on the other. The search
// ends once lastNear + lastFar ≥ mu, or when a side runs dry (it has settled
// all it can reach: mu is final, +Inf if the two never met).
//
// The stopping rule reads the keys last popped, not the queue tops of the
// textbook rule (the radix queue has no cheap top); they are never above the
// tops, so it only stops later. Directly: call a slot done on a side once it
// was popped there and its arcs relaxed; a slot not done lies at true
// distance ≥ that side's last. Take a shortest path of length d < mu at the
// stop and its first slot v not done forward: v's predecessor is, so v's
// forward arrival is final. If its backward arrival is final too, the later
// of the two improvements put d into mu; otherwise v is not done backward
// either and d = d→(v) + d←(v) ≥ lastNear + lastFar ≥ mu. So mu ≤ d, and mu
// is some path's sum.
//
// mu has the bits floodRun returns: that is the minimum over paths of sums
// folded from the left, mu a minimum over paths of sums folded from both ends
// and joined; on an order-free view every partial sum of either is an integer
// below 2⁵³ and every addition exact, so both are the minimum of the same reals.
//
// floodPoint also returns meet, the slot whose arrival last improved mu (-1
// while mu is +Inf). An arrival only falls, and any later fall at meet would
// have improved mu again, so at return s.dist[meet] + s.distB[meet] == mu:
// s.dist holds the side grown from src, s.distB the side grown from dst, and
// floodPath reads a shortest path out of them.
func (s *floodScratch) floodPoint(off, nbr []int32, w []float64, src, dst int) (mu float64, meet int32) {
	// near is the side being expanded, far the other; they trade places.
	distNear, distFar := s.dist, s.distB
	qNear, qFar := &s.q, &s.qB
	for i := range distNear {
		distNear[i], distFar[i] = math.Inf(1), math.Inf(1)
	}
	qNear.Reset()
	qFar.Reset()
	distNear[src], distFar[dst] = 0, 0
	qNear.Push(int32(src), 0)
	qFar.Push(int32(dst), 0)
	lastNear, lastFar := 0.0, 0.0
	mu, meet = math.Inf(1), -1
	for {
		if lastFar < lastNear {
			distNear, distFar, qNear, qFar, lastNear, lastFar = distFar, distNear, qFar, qNear, lastFar, lastNear
		}
		u, ok := qNear.Pop(distNear)
		if !ok {
			return mu, meet
		}
		du := distNear[u]
		lastNear = du
		if du+lastFar >= mu {
			return mu, meet
		}
		nbs := nbr[off[u]:off[u+1]]
		ws := w[off[u]:off[u+1]]
		for i, nb := range nbs {
			nd := du + ws[i]
			if nd < distNear[nb] {
				distNear[nb] = nd
				qNear.Push(nb, nd)
				if t := nd + distFar[nb]; t < mu {
					mu, meet = t, nb
				}
			}
		}
	}
}

// floodPath writes into path the slots of one shortest src→dst path other
// than src and dst, read from what a floodPoint that returned meet left in s:
// from meet back to src it steps to any neighbour y with
// s.dist[y] + w(y→x) == s.dist[x], and from meet on to dst the same over
// s.distB. A finite arrival is an earlier one plus an arc, so a step exists,
// and on an order-free view — exact sums, arcs that weigh the same both ways —
// the arcs stepped over sum to s.dist[meet] + s.distB[meet], which is mu. It
// reports false when the slots do not fit in path, which a chain circling on
// zero-weight arcs also ends in. No predecessor is stored during the search.
func (s *floodScratch) floodPath(off, nbr []int32, w []float64, src, dst int, meet int32, path []int32) (int, bool) {
	k := 0
	if int(meet) != src && int(meet) != dst {
		if len(path) == 0 {
			return 0, false
		}
		path[0], k = meet, 1
	}
	for _, side := range [2]struct {
		dist []float64
		end  int32
	}{{s.dist, int32(src)}, {s.distB, int32(dst)}} {
		dist := side.dist
		for x := meet; x != side.end; {
			y := int32(-1)
			for i := off[x]; i < off[x+1]; i++ {
				if nb := nbr[i]; dist[nb]+w[i] == dist[x] {
					y = nb
					break
				}
			}
			if y < 0 || (y != side.end && k == len(path)) {
				return 0, false
			}
			if y != side.end {
				path[k], k = y, k+1
			}
			x = y
		}
	}
	return k, true
}

// FloodLatency returns the first-arrival latency of a flooded query from
// slot src to slot dst. Flooding explores every path, so the first copy to
// arrive travelled the latency-weighted shortest overlay path; computing
// that path is therefore exact, not an approximation. Each intermediate and
// terminal slot adds its host's processing delay, delayByHost[host] ms (the
// source sends immediately): an entry for every live host, non-negative or
// +Inf, never NaN. A nil slice means no delay. It returns +Inf if dst is
// unreachable from src.
func (o *Overlay) FloodLatency(src, dst int, delayByHost []float64) float64 {
	if !o.Alive(src) || !o.Alive(dst) {
		return math.Inf(1)
	}
	if src == dst {
		return 0
	}
	s := o.floodGet()
	var d float64
	if off, nbr, w := o.floodArcs(); delayByHost == nil && o.view.orderFree {
		d, _ = s.floodPoint(off, nbr, w, src, dst)
	} else {
		// Per-host delays, or sums that depend on their order.
		d = o.floodRun(src, dst, delayByHost, s)
	}
	o.floodPut(s)
	return d
}

// FloodLatenciesInto computes the first-arrival latency from src to EVERY
// slot in one pass — the bulk kernel behind exact all-pairs metrics, which
// turns an O(n²·Dijkstra) pair loop into O(n·Dijkstra). dist must have
// length NumSlots(); entry i receives the arrival time at slot i (+Inf for
// dead or unreachable slots, 0 for src). The slice is returned for
// convenience.
func (o *Overlay) FloodLatenciesInto(src int, dist []float64) []float64 {
	if len(dist) != len(o.hostOf) {
		panic("overlay: FloodLatenciesInto buffer length mismatch")
	}
	if !o.Alive(src) {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		return dist
	}
	s := o.floodGet()
	o.floodRun(src, -1, nil, s)
	copy(dist, s.dist)
	o.floodPut(s)
	return dist
}

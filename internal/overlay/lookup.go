package overlay

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// ProcDelayFunc reports the processing delay in milliseconds a slot's host
// adds to every message it forwards or terminates: non-negative or +Inf,
// never NaN (floodRun). A nil function means zero delay everywhere. The
// Fig. 7 heterogeneity experiments plug in the bimodal model from
// internal/hetero.
type ProcDelayFunc func(slot int) float64

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
	// mark is a slot set: the stop targets of a flood, the affected set of
	// RepairFloodRow (repair.go). Whoever sets a bit clears it before
	// floodPut, so pooled scratch is always all-false.
	mark []bool
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
		s.mark = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.distB = s.distB[:n]
	s.mark = s.mark[:n]
	return s
}

func (o *Overlay) floodPut(s *floodScratch) { o.floodPool.Put(s) }

// floodRun settles slots in nondecreasing first-arrival order from src over
// the flood view. It stops at the first settled slot marked in s.mark and
// returns its arrival time; with no slot marked it computes the full arrival
// vector into s.dist and returns +Inf. Dead slots and unreachable slots keep
// +Inf. The loop makes no call but proc: adjacency, liveness and latency all
// come from the view.
//
// Precondition: arc latencies and processing delays are non-negative or +Inf,
// never NaN, so pops are monotone, which the queue relies on. No result
// depends on the order in which slots tied at one arrival time settle: a
// slot's arrival is the minimum over paths from src of the left-folded sum
// fl(fl(fl(0+w₁)+p₁)+w₂)…, and because rounding is monotone (a ≤ b ⇒
// fl(a+w) ≤ fl(b+w)) and no term is negative, a slot still queued when u
// settles can offer u nothing below dist[u] — u holds that minimum whichever
// tie went first. The early exit returns the least arrival among the marked
// slots for the same reason, and floodRun hands out no predecessors.
func (o *Overlay) floodRun(src int, proc ProcDelayFunc, s *floodScratch) float64 {
	off, nbr, w := o.floodArcs()
	dist, stop, q := s.dist, s.mark, &s.q
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	q.Reset()
	dist[src] = 0
	q.Push(int32(src), 0)
	for u, ok := q.Pop(dist); ok; u, ok = q.Pop(dist) {
		du := dist[u]
		if stop[u] {
			return du
		}
		nbs := nbr[off[u]:off[u+1]]
		ws := w[off[u]:off[u+1]]
		for i, nb := range nbs {
			nd := du + ws[i]
			if proc != nil {
				nd += proc(int(nb))
			}
			if nd < dist[nb] {
				dist[nb] = nd
				q.Push(nb, nd)
			}
		}
	}
	return math.Inf(1)
}

// floodPoint returns what floodRun returns from src with only dst marked, on
// an order-free view (floodView): it grows one Dijkstra ball forward from src
// and one backward from dst over the same arcs — they weigh the same both
// ways — always expanding the side whose last popped arrival is smaller; on a
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
func (s *floodScratch) floodPoint(off, nbr []int32, w []float64, src, dst int) float64 {
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
	lastNear, lastFar, mu := 0.0, 0.0, math.Inf(1)
	for {
		if lastFar < lastNear {
			distNear, distFar, qNear, qFar, lastNear, lastFar = distFar, distNear, qFar, qNear, lastFar, lastNear
		}
		u, ok := qNear.Pop(distNear)
		if !ok {
			return mu
		}
		du := distNear[u]
		lastNear = du
		if du+lastFar >= mu {
			return mu
		}
		nbs := nbr[off[u]:off[u+1]]
		ws := w[off[u]:off[u+1]]
		for i, nb := range nbs {
			nd := du + ws[i]
			if nd < distNear[nb] {
				distNear[nb] = nd
				qNear.Push(nb, nd)
				if t := nd + distFar[nb]; t < mu {
					mu = t
				}
			}
		}
	}
}

// FloodLatency returns the first-arrival latency of a flooded query from
// slot src to slot dst. Flooding explores every path, so the first copy to
// arrive travelled the latency-weighted shortest overlay path; computing
// that path is therefore exact, not an approximation. Each intermediate and
// terminal slot adds proc(slot) of processing delay (the source sends
// immediately). It returns +Inf if dst is unreachable from src.
func (o *Overlay) FloodLatency(src, dst int, proc ProcDelayFunc) float64 {
	if !o.Alive(src) || !o.Alive(dst) {
		return math.Inf(1)
	}
	if src == dst {
		return 0
	}
	s := o.floodGet()
	var d float64
	if off, nbr, w := o.floodArcs(); proc == nil && o.view.orderFree {
		d = s.floodPoint(off, nbr, w, src, dst)
	} else {
		// An opaque per-slot delay, or sums that depend on their order.
		s.mark[dst] = true
		d = o.floodRun(src, proc, s)
		s.mark[dst] = false
	}
	o.floodPut(s)
	return d
}

// FloodLatencyAny returns the first-arrival latency of a flooded query from
// src to the NEAREST of the dsts — the Gnutella file-search semantics,
// where any replica of the requested item satisfies the query. It returns
// +Inf when no destination is reachable (or the list is empty). A live src
// that is itself a destination costs 0.
func (o *Overlay) FloodLatencyAny(src int, dsts []int, proc ProcDelayFunc) float64 {
	if !o.Alive(src) || len(dsts) == 0 {
		return math.Inf(1)
	}
	s := o.floodGet()
	live := false
	for _, t := range dsts {
		if o.Alive(t) {
			s.mark[t] = true
			live = true
		}
	}
	d := math.Inf(1)
	switch {
	case s.mark[src]:
		d = 0
	case live:
		d = o.floodRun(src, proc, s)
	}
	for _, t := range dsts {
		if o.Alive(t) {
			s.mark[t] = false
		}
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
func (o *Overlay) FloodLatenciesInto(src int, proc ProcDelayFunc, dist []float64) []float64 {
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
	o.floodRun(src, proc, s)
	copy(dist, s.dist)
	o.floodPut(s)
	return dist
}

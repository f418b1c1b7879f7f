package overlay

import "math"

// This file is the overlay half of the incremental average-latency fast
// path (DESIGN.md §11): given a per-source first-arrival row computed by
// FloodLatenciesInto before a batch of topology changes, RepairFloodRow
// updates it in place to what a fresh flood would compute after the batch
// — touching only the slots whose arrival could actually have changed.
// metrics.ALTracker owns batch assembly (graph journal + slot events) and
// calls this once per dirty row.

// FloodEdge is one overlay link in a repair batch, with the physical hosts
// backing its endpoints at the relevant time: the pre-batch hosts for a
// removed link (whose slots may be dead by now), the current hosts for an
// added link. Carrying hosts rather than latencies lets the repair evaluate
// the latency function with the same (from,to) argument order as floodRun,
// so every comparison is bit-exact against the flood kernel.
type FloodEdge struct {
	U, V         int
	HostU, HostV int
}

// FloodPatch is the prepared lookup structure for one repair batch: the net
// removed and added links plus an added-link membership index. Build it
// once per batch with NewFloodPatch and share it across all row repairs.
//
// Contract (enforced by the tracker, not re-checked here): removed links
// connect slots that were flood-alive before the batch, with at most one
// endpoint dead now; added links connect currently-live slots; a link whose
// endpoints both died, or that targets a slot dead since before the batch,
// must not appear.
type FloodPatch struct {
	removed []FloodEdge
	added   []FloodEdge
	addSet  map[int64]bool
}

// NewFloodPatch indexes a repair batch. The slices are retained, not
// copied.
func NewFloodPatch(removed, added []FloodEdge) *FloodPatch {
	p := &FloodPatch{removed: removed, added: added}
	if len(added) > 0 {
		p.addSet = make(map[int64]bool, len(added))
		for _, e := range added {
			p.addSet[slotPairKey(e.U, e.V)] = true
		}
	}
	return p
}

// Empty reports whether the patch carries no link changes.
func (p *FloodPatch) Empty() bool { return len(p.removed) == 0 && len(p.added) == 0 }

func slotPairKey(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// FloodRepairStats reports what one RepairFloodRow call changed — the
// aggregate deltas an incremental-metric tracker folds into its running
// sums instead of rescanning the row.
type FloodRepairStats struct {
	// Affected is the size of the conservatively marked affected set.
	Affected int
	// SumDelta is the net change of the row's finite-entry sum: every entry
	// that went from a to b contributes b−a, entries leaving +Inf contribute
	// +b, entries entering +Inf contribute −a.
	SumDelta float64
	// AbsDelta accumulates the magnitudes of every term folded into
	// SumDelta — the conservative input to a floating-point drift bound
	// (each accumulation step's rounding error is at most one ulp of the
	// running magnitude).
	AbsDelta float64
	// FiniteDelta is the net change in the number of finite entries
	// (reachable destinations, including the dead ones reset to +Inf).
	FiniteDelta int
}

// RepairFloodRow updates dist — the exact pre-batch first-arrival row from
// the live slot src, as by FloodLatenciesInto — in place so it matches a
// fresh flood after the batch described by p. The algorithm is
// Ramalingam–Reps-style dynamic SSSP under flood semantics (per-slot
// processing delay added on arrival, dead slots skipped, latency derived
// from the host mapping):
//
//  1. Mark the conservative affected set with exact-arithmetic parent tests
//     (dist[x] + lat(host x, host y) + proc(y) == dist[y], the flood
//     kernel's own relaxation arithmetic), seeded at removed links and
//     propagated through surviving pre-batch adjacency (current links minus
//     added). Removed links need no propagation step of their own: the seed
//     pass already applies the same parent test to both endpoints of every
//     one of them.
//  2. Reset affected slots — and the dead endpoints of removed links — to
//     +Inf, then re-run the flood Dijkstra from the non-affected frontier
//     plus the added-link relaxations, over current adjacency.
//
// dist must have length NumSlots() (the caller extends joined slots with
// +Inf first) and src must be alive. If the affected set exceeds
// maxAffected (<= 0 means unlimited), the repair bails without touching
// dist and reports ok=false: the caller refloods the row from scratch.
// st.Affected carries the marked-set size either way.
//
// A slot that died this batch but has no link in p.removed (all its links
// connected other dying slots) keeps its stale pre-batch entry: the repair
// only resets dead endpoints it can see in the patch. Such entries are
// inert for the repair itself (dead slots are never relaxed from), but an
// aggregate-maintaining caller must sweep the batch's dead slots to +Inf
// afterwards.
func (o *Overlay) RepairFloodRow(p *FloodPatch, proc ProcDelayFunc, src int, dist []float64, maxAffected int) (st FloodRepairStats, ok bool) {
	n := len(o.hostOf)
	if len(dist) != n {
		panic("overlay: RepairFloodRow row length mismatch")
	}
	if !o.Alive(src) {
		panic("overlay: RepairFloodRow on dead source")
	}
	if p.Empty() {
		return FloodRepairStats{}, true
	}
	if maxAffected <= 0 {
		maxAffected = n
	}
	inf := math.Inf(1)
	procOf := func(x int) float64 {
		if proc != nil {
			return proc(x)
		}
		return 0
	}

	s := o.floodGet()
	mark := s.mark
	queue := make([]int, 0, 16)
	defer func() {
		for _, x := range queue {
			mark[x] = false
		}
		o.floodPut(s)
	}()
	over := false
	markSlot := func(x int) {
		if x == src || mark[x] {
			return
		}
		mark[x] = true
		queue = append(queue, x)
		if len(queue) > maxAffected {
			over = true
		}
	}

	// Seeds: a removed link may have been the tree-parent edge of either
	// live endpoint. Dead endpoints are not marked — their entries simply
	// become +Inf below; their old subtrees are reached through the other
	// removed links (the tracker lists every link of a dying slot).
	for _, e := range p.removed {
		du, dv := dist[e.U], dist[e.V]
		if du < inf && o.Alive(e.V) && du+o.lat(e.HostU, e.HostV)+procOf(e.V) == dv {
			markSlot(e.V)
		}
		if dv < inf && o.Alive(e.U) && dv+o.lat(e.HostV, e.HostU)+procOf(e.U) == du {
			markSlot(e.U)
		}
	}
	// Propagate through pre-batch adjacency so a marked slot drags its
	// whole old shortest-path subtree along (ties conservatively included).
	for qi := 0; qi < len(queue) && !over; qi++ {
		x := queue[qi]
		dx := dist[x]
		if dx == inf {
			continue
		}
		hx := o.hostOf[x] // marked slots are always alive
		o.Logical.VisitNeighbors(x, func(y int, _ float64) bool {
			if !o.Alive(y) || mark[y] {
				return true
			}
			if p.addSet != nil && p.addSet[slotPairKey(x, y)] {
				return true
			}
			if dx+o.lat(hx, o.hostOf[y])+procOf(y) == dist[y] {
				markSlot(y)
			}
			return !over
		})
	}
	if over {
		return FloodRepairStats{Affected: len(queue)}, false
	}
	st.Affected = len(queue)

	// Recompute: affected slots and dead removed-link endpoints restart
	// from +Inf; everything else is already exact, so the non-affected
	// frontier plus the added links seed an ordinary flood Dijkstra. Every
	// write from here on is folded into the stats deltas. Marked slots
	// always held a finite entry (the parent tests only fire on finite
	// arithmetic), so their reset needs no +Inf guard.
	for _, x := range queue {
		st.SumDelta -= dist[x]
		st.AbsDelta += dist[x]
		st.FiniteDelta--
		dist[x] = inf
	}
	for _, e := range p.removed {
		if !o.Alive(e.U) && dist[e.U] < inf {
			st.SumDelta -= dist[e.U]
			st.AbsDelta += dist[e.U]
			st.FiniteDelta--
			dist[e.U] = inf
		}
		if !o.Alive(e.V) && dist[e.V] < inf {
			st.SumDelta -= dist[e.V]
			st.AbsDelta += dist[e.V]
			st.FiniteDelta--
			dist[e.V] = inf
		}
	}
	q := &s.q
	q.Reset()
	relax := func(v int, nd float64) {
		old := dist[v]
		if nd < old {
			if old < inf {
				st.SumDelta += nd - old
				st.AbsDelta += old + nd
			} else {
				st.SumDelta += nd
				st.AbsDelta += nd
				st.FiniteDelta++
			}
			dist[v] = nd
			q.Push(int32(v), nd)
		}
	}
	for _, x := range queue {
		hx := o.hostOf[x]
		px := procOf(x)
		o.Logical.VisitNeighbors(x, func(y int, _ float64) bool {
			if o.Alive(y) && !mark[y] && dist[y] < inf {
				relax(x, dist[y]+o.lat(o.hostOf[y], hx)+px)
			}
			return true
		})
	}
	for _, e := range p.added {
		if dist[e.U] < inf {
			relax(e.V, dist[e.U]+o.lat(e.HostU, e.HostV)+procOf(e.V))
		}
		if dist[e.V] < inf {
			relax(e.U, dist[e.V]+o.lat(e.HostV, e.HostU)+procOf(e.U))
		}
	}
	// The settle loop runs over current adjacency only, so it reads the
	// flood view like floodRun; the marking passes above cannot (they need
	// pre-batch hosts and links).
	off, nbr, w := o.floodArcs()
	for u, ok := q.Pop(dist); ok; u, ok = q.Pop(dist) {
		du := dist[u]
		ws := w[off[u]:off[u+1]]
		for i, nb := range nbr[off[u]:off[u+1]] {
			relax(int(nb), du+ws[i]+procOf(int(nb)))
		}
	}
	return st, true
}

package shard

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// floodSource adapts the engine's struct-of-arrays state to the
// metrics.FloodSource seam: slots are the logical vertices, edge weight
// between adjacent slots is the estLat latency between their current
// occupants, and FloodInto is a Dijkstra over the logical CSR.
// refresh rebuilds the occupancy snapshot (peerAt) and the edge weights (w)
// at each sample barrier, so rows computed in parallel by the estimator all
// read one consistent frozen placement and never call estLat.
type floodSource struct {
	e      *Engine
	alive  []int
	peerAt []int32 // slot → occupying peer, frozen at the last refresh
	// w is aligned with e.lNbr: for i in slot s's CSR range,
	// w[i] == estLat(peerAt[s], peerAt[lNbr[i]]) under the current snapshot,
	// +Inf when either end is vacant. Allocated by the first refresh.
	w         []float64
	displaced []int32   // refresh scratch
	pool      sync.Pool // *graph.RadixQueue, one per concurrent flood
}

// newFloodSource builds the measurement plane over e. It takes no
// snapshot: both ways to a flood (the sample barrier, Engine.FloodSource)
// refresh first, and until then every slot is alive.
func newFloodSource(e *Engine) *floodSource {
	f := &floodSource{
		e:      e,
		alive:  make([]int, e.n),
		peerAt: make([]int32, e.n),
	}
	for i := range f.alive {
		f.alive[i] = i
	}
	f.pool.New = func() any { return new(graph.RadixQueue) }
	return f
}

// refresh rebuilds the slot→peer snapshot from slotOf, then the edge
// weights over it, and returns the number of conflicts it resolved.
// Mid-flight swaps can leave a slot double-claimed at a barrier (the
// acceptor moved, the proposer's acknowledgment still in transit);
// resolution is deterministic and shard-count independent: ascending peers
// claim their slot first-wins, then displaced peers (ascending) fill the
// unclaimed slots (ascending). Under churn, dead peers claim nothing —
// their slots stay vacant (-1) and the alive-slot list shrinks with them.
func (f *floodSource) refresh() (conflicts int) {
	e := f.e
	for s := range f.peerAt {
		f.peerAt[s] = -1
	}
	displaced := f.displaced[:0]
	for p := 0; p < e.n; p++ {
		if e.faultsOn && e.dead[p] {
			continue
		}
		s := e.slotOf[p]
		if f.peerAt[s] < 0 {
			f.peerAt[s] = int32(p)
		} else {
			displaced = append(displaced, int32(p))
		}
	}
	next := 0
	for s := 0; s < e.n && next < len(displaced); s++ {
		if f.peerAt[s] < 0 {
			f.peerAt[s] = displaced[next]
			next++
		}
	}
	if e.faultsOn {
		f.alive = f.alive[:0]
		for s := 0; s < e.n; s++ {
			if f.peerAt[s] >= 0 {
				f.alive = append(f.alive, s)
			}
		}
	}
	f.displaced = displaced
	f.fillWeights()
	return len(displaced)
}

// fillWeights recomputes w for the current snapshot, in parallel over slot
// ranges (each worker writes only its own slots' CSR ranges).
func (f *floodSource) fillWeights() {
	e := f.e
	if f.w == nil {
		f.w = make([]float64, len(e.lNbr))
	}
	workers := runtime.GOMAXPROCS(0)
	chunk := (e.n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < e.n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for s := lo; s < hi; s++ {
				p := f.peerAt[s]
				for i := e.lOff[s]; i < e.lOff[s+1]; i++ {
					if q := f.peerAt[e.lNbr[i]]; p < 0 || q < 0 {
						f.w[i] = math.Inf(1)
					} else {
						f.w[i] = e.estLat(p, q)
					}
				}
			}
		}(lo, min(lo+chunk, e.n))
	}
	wg.Wait()
}

// NumSlots reports the slot-index space size (one slot per peer).
func (f *floodSource) NumSlots() int { return f.e.n }

// AliveSlots returns the occupied slots, ascending. Fault-free that is
// every slot (the logical overlay is static and fully occupied); under
// crash-stop churn, slots whose occupant died are vacant and excluded.
func (f *floodSource) AliveSlots() []int { return f.alive }

// FloodInto runs graph.Dijkstra from src over the logical CSR and w, under
// the frozen occupancy snapshot; an edge into a vacant slot (crashed
// occupant) weighs +Inf and never relaxes, so rows may contain +Inf for
// slots cut off by churn. Safe for concurrent calls with distinct dist
// buffers (queues come from a pool); the snapshot itself must be quiescent,
// which the sample barrier guarantees.
func (f *floodSource) FloodInto(src int, dist []float64) {
	q := f.pool.Get().(*graph.RadixQueue)
	graph.Dijkstra(f.e.lOff, f.e.lNbr, f.w, src, dist, q)
	f.pool.Put(q)
}

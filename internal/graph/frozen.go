package graph

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Frozen is a read-optimized compressed-sparse-row (CSR) snapshot of a
// Graph. Neighbor lists are flat []int32/[]float64 arrays sorted by
// neighbor ID, so iteration order — and every traversal built on it — is
// deterministic and independent of the insertion order that built the
// Graph.
//
// A Frozen view never changes: mutating the source Graph after Freeze
// leaves existing views intact (they describe the pre-mutation graph) and
// invalidates the Graph's cached view, so the next Graph.Frozen() call
// re-freezes. All methods are safe for concurrent use; the per-view
// sync.Pool recycles Dijkstra queues across goroutines, making repeated
// shortest-path calls allocation-free.
type Frozen struct {
	off []int32   // off[u]..off[u+1] indexes nbr/wt; len n+1
	nbr []int32   // concatenated sorted neighbor lists; len 2m
	wt  []float64 // weights parallel to nbr
	m   int       // undirected edge count

	queues sync.Pool // *RadixQueue
}

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// Freeze builds a CSR snapshot of the graph's current state. The snapshot
// is immutable; prefer Graph.Frozen() when the graph is static, which
// caches the view across calls.
func (g *Graph) Freeze() *Frozen {
	n := len(g.adj)
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: cannot freeze %d vertices into int32 CSR", n))
	}
	// off/nbr indices are int32 and nbr holds both directions of every edge,
	// so the directed arc count 2m must fit too — possible to exceed even
	// with n well under MaxInt32.
	if g.m > math.MaxInt32/2 {
		panic(fmt.Sprintf("graph: cannot freeze %d edges (2m arcs) into int32 CSR", g.m))
	}
	f := &Frozen{
		off: make([]int32, n+1),
		nbr: make([]int32, 2*g.m),
		wt:  make([]float64, 2*g.m),
		m:   g.m,
	}
	for u := 0; u < n; u++ {
		f.off[u+1] = f.off[u] + int32(len(g.adj[u]))
	}
	// Adjacency lists are already sorted by neighbor ID, so CSR rows are a
	// straight copy.
	for u := 0; u < n; u++ {
		lo := f.off[u]
		for i, e := range g.adj[u] {
			f.nbr[int(lo)+i] = int32(e.to)
			f.wt[int(lo)+i] = e.w
		}
	}
	f.queues.New = func() any {
		q := new(RadixQueue)
		q.Grow(n)
		return q
	}
	return f
}

// Frozen returns the cached CSR view of the graph, freezing on first use.
// Any mutation (AddVertex, AddEdge, RemoveEdge) invalidates the cache; the
// next call re-freezes. Concurrent callers may race to build the first
// view, in which case they build identical snapshots and one wins — reads
// are always consistent because views are immutable.
func (g *Graph) Frozen() *Frozen {
	if f := g.frozen.Load(); f != nil {
		return f
	}
	f := g.Freeze()
	g.frozen.Store(f)
	return f
}

// invalidateFrozen drops the cached CSR view; every mutating method calls it.
func (g *Graph) invalidateFrozen() {
	if g.frozen.Load() != nil {
		g.frozen.Store(nil)
	}
}

// frozenCache wraps the atomic pointer so Graph literals stay constructible
// elsewhere in the package without naming the atomic type.
type frozenCache = atomic.Pointer[Frozen]

// NumVertices reports the vertex count of the snapshot.
func (f *Frozen) NumVertices() int { return len(f.off) - 1 }

// NumEdges reports the undirected edge count of the snapshot.
func (f *Frozen) NumEdges() int { return f.m }

// Degree returns the degree of vertex u (0 when out of range).
func (f *Frozen) Degree(u int) int {
	if u < 0 || u >= f.NumVertices() {
		return 0
	}
	return int(f.off[u+1] - f.off[u])
}

// Row returns u's neighbor IDs and edge weights as shared slices in
// ascending neighbor order. Callers must not mutate them.
func (f *Frozen) Row(u int) ([]int32, []float64) {
	if u < 0 || u >= f.NumVertices() {
		return nil, nil
	}
	lo, hi := f.off[u], f.off[u+1]
	return f.nbr[lo:hi], f.wt[lo:hi]
}

// ShortestPathsInto writes the single-source shortest-path distances from
// src into dist, which must have length NumVertices(): +Inf for vertices src
// does not reach, and for every vertex when src is out of range. It runs
// Dijkstra on a queue from the view's pool and performs no allocations once
// the pool is warm, making it the kernel of choice for all-sources sweeps.
func (f *Frozen) ShortestPathsInto(src int, dist []float64) {
	if len(dist) != f.NumVertices() {
		panic(fmt.Sprintf("graph: ShortestPathsInto buffer length %d, want %d", len(dist), f.NumVertices()))
	}
	q := f.queues.Get().(*RadixQueue)
	Dijkstra(f.off, f.nbr, f.wt, src, dist, q)
	f.queues.Put(q)
}

// Dijkstra writes into dist, one entry per vertex, the shortest-path
// distances from src over compressed sparse rows — vertex u's arcs lead to
// nbr[off[u]:off[u+1]] and weigh w[off[u]:off[u+1]] — with +Inf for vertices
// src does not reach, and for every vertex when src is out of range. q is
// reset first and holds the frontier. It is the repository's one CSR
// Dijkstra: Frozen.ShortestPathsInto and the sharded engine's floods run it.
//
// Weights must be non-negative or +Inf, never NaN: pops are then monotone,
// which q relies on. No distance depends on which of several vertices tied
// at one distance q pops first (DESIGN.md §7 "Tie order"), so dist is a pure
// function of the rows, and the kernel hands out no predecessors.
func Dijkstra(off, nbr []int32, w []float64, src int, dist []float64, q *RadixQueue) {
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= len(dist) {
		return
	}
	q.Reset()
	dist[src] = 0
	q.Push(int32(src), 0)
	for u, ok := q.Pop(dist); ok; u, ok = q.Pop(dist) {
		du := dist[u]
		lo, hi := off[u], off[u+1]
		ws := w[lo:hi]
		for i, v := range nbr[lo:hi] {
			if d := du + ws[i]; d < dist[v] {
				dist[v] = d
				q.Push(v, d)
			}
		}
	}
}

// Component returns the vertices reachable from start (including start) in
// BFS discovery order. Sorted CSR rows make the order deterministic.
func (f *Frozen) Component(start int) []int {
	n := f.NumVertices()
	if start < 0 || start >= n {
		return nil
	}
	visited := make([]bool, n)
	queue := make([]int32, 1, n)
	queue[0] = int32(start)
	visited[start] = true
	order := make([]int, 0, n)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		order = append(order, int(u))
		for i := f.off[u]; i < f.off[u+1]; i++ {
			if v := f.nbr[i]; !visited[v] {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	return order
}

// Connected reports whether the snapshot is connected (trivially true for
// empty and single-vertex graphs).
func (f *Frozen) Connected() bool {
	return len(f.Component(0)) == f.NumVertices()
}

package graph

import (
	"container/heap"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestFrozenShortestPathsAgree property-checks the CSR Dijkstra against the
// two independent map-based oracles (the retained baseline binary-heap
// Dijkstra and Bellman-Ford) on randomized weighted graphs.
func TestFrozenShortestPathsAgree(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(40)
		g := randomConnectedGraph(r, n, n)
		src := r.Intn(n)
		csr := g.Frozen().ShortestPaths(src)
		base := baselineShortestPaths(g, src)
		bf := g.BellmanFord(src)
		for i := range csr {
			if math.Abs(csr[i]-base[i]) > 1e-9 || math.Abs(csr[i]-bf[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenBFSAndDegreesAgree cross-checks every frozen kernel that has a
// map-based twin: component membership, connectivity, component counts,
// degree sequences, per-vertex degrees, and hop distances.
func TestFrozenBFSAndDegreesAgree(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(30)
		// Possibly disconnected: random edges only.
		g := New(n)
		for k := 0; k < n; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, 1+r.Float64()*9)
			}
		}
		fz := g.Frozen()
		if fz.Connected() != g.Connected() {
			return false
		}
		if fz.ComponentCount() != g.ComponentCount() {
			return false
		}
		ds1, ds2 := fz.DegreeSequence(), g.DegreeSequence()
		for i := range ds1 {
			if ds1[i] != ds2[i] {
				return false
			}
		}
		for u := 0; u < n; u++ {
			if fz.Degree(u) != g.Degree(u) {
				return false
			}
			// Same reachable set (order may differ between map and CSR BFS).
			inComp := map[int]bool{}
			for _, v := range g.Component(u) {
				inComp[v] = true
			}
			comp := fz.Component(u)
			if len(comp) != len(inComp) {
				return false
			}
			for _, v := range comp {
				if !inComp[v] {
					return false
				}
			}
		}
		for k := 0; k < 10; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if fz.HopDistance(u, v) != g.HopDistance(u, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenDeterministicAcrossInsertionOrders is the determinism
// guarantee: the same edge set inserted in different orders must freeze to
// byte-identical CSR arrays, identical BFS orders, and an identical
// shortest-path tree (tie-breaks included).
func TestFrozenDeterministicAcrossInsertionOrders(t *testing.T) {
	r := rng.New(42)
	n := 40
	g1 := randomConnectedGraph(r, n, 2*n)
	edges := g1.Edges()

	for trial := 0; trial < 5; trial++ {
		shuffled := append([]Edge(nil), edges...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		g2 := New(n)
		for _, e := range shuffled {
			g2.MustAddEdge(e.U, e.V, e.W)
		}
		f1, f2 := g1.Frozen(), g2.Frozen()
		for u := 0; u < n; u++ {
			n1, w1 := f1.Row(u)
			n2, w2 := f2.Row(u)
			if len(n1) != len(n2) {
				t.Fatalf("trial %d: vertex %d row lengths differ", trial, u)
			}
			for i := range n1 {
				if n1[i] != n2[i] || w1[i] != w2[i] {
					t.Fatalf("trial %d: vertex %d row differs at %d: (%d,%v) vs (%d,%v)",
						trial, u, i, n1[i], w1[i], n2[i], w2[i])
				}
			}
		}
		c1, c2 := f1.Component(0), f2.Component(0)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("trial %d: BFS orders diverge at %d: %d vs %d", trial, i, c1[i], c2[i])
			}
		}
		for src := 0; src < n; src += 7 {
			d1, p1 := g1.ShortestPathTree(src)
			d2, p2 := g2.ShortestPathTree(src)
			for v := range p1 {
				if p1[v] != p2[v] || d1[v] != d2[v] {
					t.Fatalf("trial %d: tree from %d differs at %d: prev %d/%d dist %v/%v",
						trial, src, v, p1[v], p2[v], d1[v], d2[v])
				}
			}
		}
	}
}

// TestFrozenCacheInvalidation: Frozen() caches until mutation, and a stale
// handle keeps describing the pre-mutation graph.
func TestFrozenCacheInvalidation(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	f1 := g.Frozen()
	if g.Frozen() != f1 {
		t.Fatal("Frozen() did not cache on a static graph")
	}
	g.MustAddEdge(1, 2, 2)
	f2 := g.Frozen()
	if f2 == f1 {
		t.Fatal("AddEdge did not invalidate the frozen view")
	}
	if f1.NumEdges() != 1 || f2.NumEdges() != 2 {
		t.Fatalf("edge counts: stale %d (want 1), fresh %d (want 2)", f1.NumEdges(), f2.NumEdges())
	}
	g.RemoveEdge(0, 1)
	if g.Frozen() == f2 {
		t.Fatal("RemoveEdge did not invalidate the frozen view")
	}
	g.AddVertex()
	f3 := g.Frozen()
	if f3.NumVertices() != 4 {
		t.Fatalf("post-AddVertex view has %d vertices, want 4", f3.NumVertices())
	}
}

// TestFrozenEdgeCases covers empty graphs, bad sources, and buffer
// validation.
func TestFrozenEdgeCases(t *testing.T) {
	empty := New(0).Frozen()
	if !empty.Connected() || empty.ComponentCount() != 0 || empty.NumVertices() != 0 {
		t.Fatal("empty frozen graph misbehaves")
	}
	single := New(1).Frozen()
	if !single.Connected() || len(single.Component(0)) != 1 {
		t.Fatal("single-vertex frozen graph misbehaves")
	}
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	fz := g.Frozen()
	for _, d := range fz.ShortestPaths(-1) {
		if !math.IsInf(d, 1) {
			t.Fatal("invalid source should yield all-Inf distances")
		}
	}
	if !math.IsInf(fz.ShortestPaths(0)[2], 1) {
		t.Fatal("unreachable vertex should be +Inf")
	}
	if nbr, wt := fz.Row(99); nbr != nil || wt != nil {
		t.Fatal("out-of-range Row should be nil")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ShortestPathsInto accepted a short buffer")
			}
		}()
		fz.ShortestPathsInto(0, make([]float64, 1))
	}()
}

// TestShortestPathsIntoAllocationFree pins the tentpole claim: after the
// scratch pool is warm, a full Dijkstra into a caller buffer performs zero
// allocations.
func TestShortestPathsIntoAllocationFree(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc pin only holds unraced")
	}
	r := rng.New(3)
	g := randomConnectedGraph(r, 500, 2000)
	fz := g.Frozen()
	buf := make([]float64, 500)
	fz.ShortestPathsInto(0, buf) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		fz.ShortestPathsInto(1, buf)
	})
	if allocs > 0 {
		t.Fatalf("ShortestPathsInto allocated %.1f objects/run after warm-up, want 0", allocs)
	}
}

// baselineShortestPaths is the pre-CSR Dijkstra over the adjacency lists
// with a container/heap binary heap: an independent reference for the CSR
// kernel.
func baselineShortestPaths(g *Graph, src int) []float64 {
	dist := make([]float64, len(g.adj))
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	pq := &distHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > dist[item.v] {
			continue // stale entry
		}
		for _, e := range g.adj[item.v] {
			if nd := item.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(pq, distItem{v: e.to, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	item := old[len(old)-1]
	*h = old[:len(old)-1]
	return item
}

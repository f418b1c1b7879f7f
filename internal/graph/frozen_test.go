package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph/graphtest"
	"repro/internal/rng"
)

// TestFrozenShortestPathsAgree property-checks the CSR Dijkstra against the
// graphtest reference, bit for bit, on randomized weighted graphs.
func TestFrozenShortestPathsAgree(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(40)
		g := randomConnectedGraph(r, n, n)
		src := r.Intn(n)
		return sameBits(shortestPaths(g, src), reference(g, src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenBFSAndDegreesAgree cross-checks the frozen view's structure
// against the graph it froze, on possibly disconnected random graphs:
// per-vertex degrees against the adjacency lists, and every component and
// the connectivity verdict against the vertices the graphtest reference
// reaches.
func TestFrozenBFSAndDegreesAgree(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(30)
		g := New(n)
		for k := 0; k < n; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, 1+r.Float64()*9)
			}
		}
		fz := g.Frozen()
		for u := 0; u < n; u++ {
			if fz.Degree(u) != g.Degree(u) {
				return false
			}
			ref, comp := reference(g, u), fz.Component(u)
			reached := 0
			for _, d := range ref {
				if !math.IsInf(d, 1) {
					reached++
				}
			}
			if len(comp) != reached || comp[0] != u || u == 0 && fz.Connected() != (reached == n) {
				return false
			}
			for _, v := range comp {
				if math.IsInf(ref[v], 1) {
					return false
				}
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
// byte-identical CSR arrays, identical BFS orders and bit-identical
// shortest-path distances.
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
			if d1, d2 := shortestPaths(g1, src), shortestPaths(g2, src); !sameBits(d1, d2) {
				t.Fatalf("trial %d: distances from %d differ: %v vs %v", trial, src, d1, d2)
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
	if !empty.Connected() || empty.NumVertices() != 0 {
		t.Fatal("empty frozen graph misbehaves")
	}
	single := New(1).Frozen()
	if !single.Connected() || len(single.Component(0)) != 1 {
		t.Fatal("single-vertex frozen graph misbehaves")
	}
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	fz := g.Frozen()
	for _, d := range shortestPaths(g, -1) {
		if !math.IsInf(d, 1) {
			t.Fatal("invalid source should yield all-Inf distances")
		}
	}
	if !math.IsInf(shortestPaths(g, 0)[2], 1) {
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

// shortestPaths is ShortestPathsInto from src over g's frozen view, into a
// fresh row.
func shortestPaths(g *Graph, src int) []float64 {
	dist := make([]float64, g.NumVertices())
	g.Frozen().ShortestPathsInto(src, dist)
	return dist
}

// reference is the graphtest Dijkstra from src over g.
func reference(g *Graph, src int) []float64 {
	return graphtest.Dijkstra(g.NumVertices(), src, g.VisitNeighbors, nil)
}

// sameBits reports whether two rows are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

package graph

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(0, 2, 5)
	return g
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1, 1.5); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	// Overwrite keeps the count.
	if err := g.AddEdge(1, 0, 2.5); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges after overwrite = %d, want 1", g.NumEdges())
	}
	if w, _ := g.Weight(0, 1); w != 2.5 {
		t.Fatalf("weight = %v, want 2.5", w)
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge returned false for existing edge")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge returned true for missing edge")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges after remove = %d, want 0", g.NumEdges())
	}
}

// TestVersion: every effective mutation bumps Version by one, and a call
// that changes nothing (a no-op overwrite, removing an absent edge) leaves
// it — the overlay's flood view is stamped with it.
func TestVersion(t *testing.T) {
	g := New(4)
	if g.Version() != 0 {
		t.Fatalf("fresh graph version = %d, want 0", g.Version())
	}
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 7)
	if g.Version() != 2 {
		t.Fatalf("version after 2 adds = %d, want 2", g.Version())
	}
	g.MustAddEdge(0, 1, 5)
	g.RemoveEdge(0, 3)
	if g.Version() != 2 {
		t.Fatalf("no-op overwrite or absent removal bumped version to %d", g.Version())
	}
	g.MustAddEdge(0, 1, 9)
	g.RemoveEdge(1, 2)
	g.AddVertex()
	if g.Version() != 5 {
		t.Fatalf("version after overwrite, removal and AddVertex = %d, want 5", g.Version())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative vertex accepted")
	}
	if err := g.AddEdge(0, 1, -2); err == nil {
		t.Error("negative weight accepted")
	}
	if err := g.AddEdge(0, 1, math.NaN()); err == nil || g.NumEdges() != 0 || g.Version() != 0 {
		t.Errorf("NaN weight: err %v, %d edges, version %d", err, g.NumEdges(), g.Version())
	}
}

// TestOutOfRangeVertices: queries about a vertex outside [0, n) answer
// "absent" on both representations, and MustAddEdge panics where AddEdge
// errs.
func TestOutOfRangeVertices(t *testing.T) {
	g := buildTriangle(t)
	fz := g.Frozen()
	for _, u := range []int{-1, 3} {
		if g.Degree(u) != 0 || fz.Degree(u) != 0 || g.HasEdge(u, 0) || g.RemoveEdge(u, 0) {
			t.Errorf("vertex %d: has a degree or an edge", u)
		}
		if _, ok := g.Weight(u, 0); ok {
			t.Errorf("vertex %d: has a weight", u)
		}
		if got := g.AppendNeighbors([]int{7}, u); len(got) != 1 {
			t.Errorf("vertex %d: AppendNeighbors appended %v", u, got[1:])
		}
		g.VisitNeighbors(u, func(int, float64) bool {
			t.Errorf("vertex %d: VisitNeighbors visited", u)
			return true
		})
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddEdge accepted a self-loop")
		}
	}()
	g.MustAddEdge(1, 1, 1)
}

func TestAddVertex(t *testing.T) {
	g := New(0)
	a := g.AddVertex()
	b := g.AddVertex()
	if a != 0 || b != 1 {
		t.Fatalf("AddVertex ids = %d,%d", a, b)
	}
	g.MustAddEdge(a, b, 3)
	if g.Degree(a) != 1 {
		t.Fatalf("degree = %d", g.Degree(a))
	}
}

func TestNeighborsSortedAndCopied(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 4, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(0, 3, 1)
	nbrs := g.Neighbors(0)
	want := []int{2, 3, 4}
	for i, v := range want {
		if nbrs[i] != v {
			t.Fatalf("Neighbors(0) = %v, want %v", nbrs, want)
		}
	}
	nbrs[0] = 99
	if g.HasEdge(0, 99) {
		t.Fatal("mutating returned slice affected the graph")
	}
	if g.Neighbors(-1) != nil || g.Neighbors(100) != nil {
		t.Fatal("out-of-range Neighbors should be nil")
	}
}

func TestVisitNeighborsEarlyStop(t *testing.T) {
	g := buildTriangle(t)
	calls := 0
	g.VisitNeighbors(0, func(v int, w float64) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g := buildTriangle(t)
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("Edges len = %d", len(edges))
	}
	want := []Edge{{0, 1, 1}, {0, 2, 5}, {1, 2, 2}}
	for i, e := range want {
		if edges[i] != e {
			t.Fatalf("Edges[%d] = %+v, want %+v", i, edges[i], e)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildTriangle(t)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("clone shares storage with original")
	}
	if c.NumEdges() != 2 || g.NumEdges() != 3 {
		t.Fatalf("edge counts: clone %d, orig %d", c.NumEdges(), g.NumEdges())
	}
}

func TestDegreeStats(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(0, 3, 1)
	ds := g.DegreeSequence()
	want := []int{1, 1, 1, 3}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("DegreeSequence = %v", ds)
		}
	}
	if g.MinDegree() != 1 {
		t.Fatalf("MinDegree = %d", g.MinDegree())
	}
	if ad := g.AverageDegree(); ad != 1.5 {
		t.Fatalf("AverageDegree = %v", ad)
	}
	empty := New(0)
	if empty.MinDegree() != 0 || empty.AverageDegree() != 0 {
		t.Fatal("empty graph stats nonzero")
	}
}

func TestWeightAggregates(t *testing.T) {
	g := buildTriangle(t)
	if tw := g.TotalWeight(); tw != 8 {
		t.Fatalf("TotalWeight = %v", tw)
	}
	if mw := g.MeanEdgeWeight(); math.Abs(mw-8.0/3) > 1e-12 {
		t.Fatalf("MeanEdgeWeight = %v", mw)
	}
	if New(3).MeanEdgeWeight() != 0 {
		t.Fatal("edgeless MeanEdgeWeight nonzero")
	}
}

func TestConnectivity(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if g.Frozen().Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	g.MustAddEdge(1, 2, 1)
	if !g.Frozen().Connected() {
		t.Fatal("connected graph reported disconnected")
	}
	if !New(0).Frozen().Connected() || !New(1).Frozen().Connected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestComponent(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	comp := g.Frozen().Component(0)
	if len(comp) != 3 {
		t.Fatalf("Component(0) = %v", comp)
	}
	if comp[0] != 0 {
		t.Fatalf("BFS order should start at source: %v", comp)
	}
	if g.Frozen().Component(-1) != nil {
		t.Fatal("invalid start should return nil")
	}
}

func TestShortestPathsTriangle(t *testing.T) {
	g := buildTriangle(t)
	dist := shortestPaths(g, 0)
	want := []float64{0, 1, 3} // 0->1 = 1, 0->1->2 = 3 beats direct 5
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	dist := shortestPaths(g, 0)
	if !math.IsInf(dist[2], 1) {
		t.Fatalf("unreachable distance = %v, want +Inf", dist[2])
	}
	distBad := shortestPaths(g, 99)
	for _, d := range distBad {
		if !math.IsInf(d, 1) {
			t.Fatal("invalid source should yield all-Inf distances")
		}
	}
}

// randomConnectedGraph builds a connected random graph for property tests.
func randomConnectedGraph(r *rng.Rand, n, extraEdges int) *Graph {
	g := New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		// Random spanning tree: attach perm[i] to an earlier vertex.
		j := perm[r.Intn(i)]
		w := 1 + r.Float64()*99
		g.MustAddEdge(perm[i], j, w)
	}
	for k := 0; k < extraEdges; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1+r.Float64()*99)
		}
	}
	return g
}

// TestDijkstraAgreesWithBellmanFord checks that every ShortestPathsInto row
// is the fixed point Bellman-Ford's relaxation converges to, exactly, on
// randomized weighted graphs: the source is at 0, no edge relaxes any
// distance further, and every other vertex attains its distance through some
// neighbour bit for bit.
func TestDijkstraAgreesWithBellmanFord(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(40)
		g := randomConnectedGraph(r, n, n)
		src := r.Intn(n)
		dist := shortestPaths(g, src)
		if dist[src] != 0 {
			return false
		}
		for v := 0; v < n; v++ {
			relaxes, tight := false, v == src
			g.VisitNeighbors(v, func(u int, w float64) bool {
				relaxes = relaxes || dist[u]+w < dist[v]
				tight = tight || dist[u]+w == dist[v]
				return true
			})
			if relaxes || !tight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraTriangleInequality(t *testing.T) {
	r := rng.New(99)
	g := randomConnectedGraph(r, 60, 120)
	src := 0
	dist := shortestPaths(g, src)
	for _, e := range g.Edges() {
		if dist[e.V] > dist[e.U]+e.W+1e-9 || dist[e.U] > dist[e.V]+e.W+1e-9 {
			t.Fatalf("triangle inequality violated on edge %+v: d[u]=%v d[v]=%v", e, dist[e.U], dist[e.V])
		}
	}
}

func TestIsomorphicUnderMappingIdentity(t *testing.T) {
	g := buildTriangle(t)
	phi := []int{0, 1, 2}
	if err := IsomorphicUnderMapping(g, g, phi); err != nil {
		t.Fatalf("identity mapping rejected: %v", err)
	}
}

func TestIsomorphicUnderMappingSwap(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	// h = g with vertices 1 and 2 swapped.
	h := New(4)
	h.MustAddEdge(0, 2, 1)
	h.MustAddEdge(2, 1, 2)
	h.MustAddEdge(1, 3, 3)
	phi := []int{0, 2, 1, 3}
	if err := IsomorphicUnderMapping(g, h, phi); err != nil {
		t.Fatalf("valid swap mapping rejected: %v", err)
	}
	// Wrong mapping must be rejected.
	if err := IsomorphicUnderMapping(g, h, []int{0, 1, 2, 3}); err == nil {
		t.Fatal("identity mapping wrongly accepted for swapped graph")
	}
}

func TestIsomorphicUnderMappingErrors(t *testing.T) {
	g := buildTriangle(t)
	h := New(2)
	if err := IsomorphicUnderMapping(g, h, []int{0, 1, 2}); err == nil {
		t.Error("size mismatch accepted")
	}
	h3 := buildTriangle(t)
	if err := IsomorphicUnderMapping(g, h3, []int{0, 1}); err == nil {
		t.Error("short mapping accepted")
	}
	if err := IsomorphicUnderMapping(g, h3, []int{0, 0, 1}); err == nil {
		t.Error("non-injective mapping accepted")
	}
	if err := IsomorphicUnderMapping(g, h3, []int{0, 1, 9}); err == nil {
		t.Error("out-of-range mapping accepted")
	}
	weighted := buildTriangle(t)
	weighted.MustAddEdge(0, 1, 42) // change weight
	if err := IsomorphicUnderMapping(g, weighted, []int{0, 1, 2}); err == nil {
		t.Error("weight mismatch accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	g := buildTriangle(t)
	var buf strings.Builder
	err := g.WriteDOT(&buf, "demo",
		func(v int) string { return fmt.Sprintf("node-%d", v) },
		func(v int) string {
			if v == 0 {
				return "color=red"
			}
			return ""
		})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`graph "demo"`, `label="node-0"`, "color=red", "n0 -- n1", "n1 -- n2", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// Defaults: empty name and nil callbacks.
	buf.Reset()
	if err := g.WriteDOT(&buf, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `graph "G"`) {
		t.Error("default name missing")
	}
}

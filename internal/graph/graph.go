// Package graph implements the weighted undirected graphs that underpin both
// the physical-network substrate and the logical overlays of the PROP
// reproduction.
//
// The representation is a compact adjacency list keyed by dense integer
// vertex IDs. Edge weights are float64 latencies in milliseconds. The
// package provides the primitives the paper's analysis leans on:
// single-source shortest paths (Dijkstra), connectivity checks (Theorem 1,
// connectivity persistence), degree sequences (PROP-O degree preservation),
// and isomorphism-under-relabeling verification (Theorem 2).
//
// Key types: Graph (mutable sorted adjacency lists, right for construction
// and edge churn) and Frozen (the immutable CSR traversal view). DESIGN.md
// §7 explains the freeze-after-construction contract and the kernel design.
package graph

import (
	"fmt"
	"sort"
)

// halfEdge is one directed half of an undirected edge: the neighbor it
// leads to and the edge weight.
type halfEdge struct {
	to int
	w  float64
}

// Graph is a weighted undirected multigraph-free graph over vertices
// 0..NumVertices-1. The zero value is an empty graph; grow it with
// AddVertex/AddEdge.
//
// Adjacency lists are kept sorted by neighbor ID, so every traversal
// (VisitNeighbors, Edges, the search kernels) sees neighbors in ascending
// order — deterministic regardless of edge insertion order, so Dijkstra
// settle order and tie-breaking are a pure function of the edge set
// (DESIGN.md §7). Lookups cost O(log deg), mutations O(deg); P2P overlay
// degrees are small constants, and the hot paths iterate rather than probe.
type Graph struct {
	adj [][]halfEdge // adj[u], sorted by neighbor ID
	m   int          // number of edges

	// frozen caches the CSR view built by Frozen(); every mutation clears
	// it. Atomic so concurrent readers of a static graph never race the
	// lazy build.
	frozen frozenCache

	// version counts effective mutations (see Version). A mutation that
	// changes nothing (e.g. re-adding an edge with its current weight) does
	// not bump it.
	version uint64
}

// New returns a graph with n isolated vertices.
func New(n int) *Graph {
	return &Graph{adj: make([][]halfEdge, n)}
}

// findHalf locates v in the sorted list, returning its index and whether it
// is present; absent, the index is v's insertion point.
func findHalf(list []halfEdge, v int) (int, bool) {
	i := sort.Search(len(list), func(k int) bool { return list[k].to >= v })
	return i, i < len(list) && list[i].to == v
}

// setHalf inserts or overwrites the half-edge to v, keeping the list
// sorted. It reports whether the edge already existed.
func setHalf(list []halfEdge, v int, w float64) ([]halfEdge, bool) {
	i, ok := findHalf(list, v)
	if ok {
		list[i].w = w
		return list, true
	}
	list = append(list, halfEdge{})
	copy(list[i+1:], list[i:])
	list[i] = halfEdge{to: v, w: w}
	return list, false
}

// dropHalf removes the half-edge to v, reporting whether it existed.
func dropHalf(list []halfEdge, v int) ([]halfEdge, bool) {
	i, ok := findHalf(list, v)
	if !ok {
		return list, false
	}
	copy(list[i:], list[i+1:])
	return list[:len(list)-1], true
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Version returns the graph's mutation counter. It increments on every
// effective mutation (AddVertex, AddEdge, RemoveEdge, weight overwrite);
// no-op calls leave it unchanged.
func (g *Graph) Version() uint64 { return g.version }

// AddVertex appends a new isolated vertex and returns its ID.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	g.version++
	g.invalidateFrozen()
	return len(g.adj) - 1
}

// AddEdge inserts the undirected edge {u,v} with weight w. Self-loops are
// rejected. Re-adding an existing edge overwrites its weight and is not
// counted twice.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	if w < 0 {
		return fmt.Errorf("graph: negative weight %v on edge {%d,%d}", w, u, v)
	}
	oldW, existed := g.Weight(u, v)
	if existed && oldW == w {
		// No-op overwrite: the graph is unchanged, so neither the version
		// nor the cached CSR view needs to move.
		return nil
	}
	g.adj[u], _ = setHalf(g.adj[u], v, w)
	g.adj[v], _ = setHalf(g.adj[v], u, w)
	if !existed {
		g.m++
	}
	g.version++
	g.invalidateFrozen()
	return nil
}

// MustAddEdge is AddEdge that panics on error; for construction code whose
// inputs are known valid.
func (g *Graph) MustAddEdge(u, v int, w float64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge {u,v}. It reports whether the edge
// existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	if !g.HasEdge(u, v) {
		return false
	}
	g.adj[u], _ = dropHalf(g.adj[u], v)
	g.adj[v], _ = dropHalf(g.adj[v], u)
	g.m--
	g.version++
	g.invalidateFrozen()
	return true
}

// HasEdge reports whether the edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	_, ok := findHalf(g.adj[u], v)
	return ok
}

// Weight returns the weight of edge {u,v} and whether it exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	if u < 0 || u >= len(g.adj) {
		return 0, false
	}
	i, ok := findHalf(g.adj[u], v)
	if !ok {
		return 0, false
	}
	return g.adj[u][i].w, true
}

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u int) int {
	if u < 0 || u >= len(g.adj) {
		return 0
	}
	return len(g.adj[u])
}

// Neighbors returns the neighbor IDs of u in ascending order. The slice is
// freshly allocated; callers may mutate it.
func (g *Graph) Neighbors(u int) []int {
	if u < 0 || u >= len(g.adj) {
		return nil
	}
	return g.AppendNeighbors(make([]int, 0, len(g.adj[u])), u)
}

// AppendNeighbors appends the neighbor IDs of u to dst in ascending order and
// returns the extended slice — Neighbors for hot loops that reuse a buffer.
func (g *Graph) AppendNeighbors(dst []int, u int) []int {
	if u < 0 || u >= len(g.adj) {
		return dst
	}
	for _, e := range g.adj[u] {
		dst = append(dst, e.to)
	}
	return dst
}

// VisitNeighbors calls f for every neighbor of u, in ascending neighbor
// order, with the edge weight. Iteration stops early if f returns false.
// The deterministic order is load-bearing: what is built on it (the
// overlay's flood view, the baseline Dijkstras, the protocol's neighbor
// scans) behaves identically on every run, which the byte-deterministic
// outputs rely on (DESIGN.md §8).
func (g *Graph) VisitNeighbors(u int, f func(v int, w float64) bool) {
	if u < 0 || u >= len(g.adj) {
		return
	}
	for _, e := range g.adj[u] {
		if !f(e.to, e.w) {
			return
		}
	}
}

// Edge is an undirected edge with U < V, plus its weight.
type Edge struct {
	U, V int
	W    float64
}

// Edges returns every edge exactly once, sorted by (U, V). The adjacency
// lists are already sorted, so this is a single ordered sweep.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if u < e.to {
				out = append(out, Edge{U: u, V: e.to, W: e.w})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	c.m = g.m
	for u, nbrs := range g.adj {
		c.adj[u] = append([]halfEdge(nil), nbrs...)
	}
	return c
}

// DegreeSequence returns the sorted multiset of vertex degrees. Two graphs
// related by a PROP-O exchange must have identical degree sequences.
func (g *Graph) DegreeSequence() []int {
	ds := make([]int, len(g.adj))
	for u := range g.adj {
		ds[u] = len(g.adj[u])
	}
	sort.Ints(ds)
	return ds
}

// MinDegree returns the minimum vertex degree δ(G), or 0 for an empty graph.
// The paper sets the default PROP-O exchange size m = δ(G).
func (g *Graph) MinDegree() int {
	if len(g.adj) == 0 {
		return 0
	}
	min := len(g.adj)
	for u := range g.adj {
		if d := len(g.adj[u]); d < min {
			min = d
		}
	}
	return min
}

// AverageDegree returns the mean vertex degree (2m/n), or 0 for an empty
// graph.
func (g *Graph) AverageDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	total := 0.0
	for u, nbrs := range g.adj {
		for _, e := range nbrs {
			if u < e.to {
				total += e.w
			}
		}
	}
	return total
}

// MeanEdgeWeight returns the average edge weight, or 0 if there are no
// edges. In the physical network this is the "average physical link
// latency" denominator of the paper's stretch metric.
func (g *Graph) MeanEdgeWeight() float64 {
	if g.m == 0 {
		return 0
	}
	return g.TotalWeight() / float64(g.m)
}

func (g *Graph) check(u int) error {
	if u < 0 || u >= len(g.adj) {
		return fmt.Errorf("graph: vertex %d out of range [0,%d)", u, len(g.adj))
	}
	return nil
}

// Connected reports whether the graph is connected (true for the empty and
// single-vertex graphs).
func (g *Graph) Connected() bool {
	n := len(g.adj)
	if n <= 1 {
		return true
	}
	return len(g.Component(0)) == n
}

// Component returns the vertices reachable from start (including start),
// in BFS discovery order.
func (g *Graph) Component(start int) []int {
	if start < 0 || start >= len(g.adj) {
		return nil
	}
	visited := make([]bool, len(g.adj))
	queue := []int{start}
	visited[start] = true
	order := make([]int, 0, len(g.adj))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, e := range g.adj[u] {
			if !visited[e.to] {
				visited[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return order
}

// ComponentCount returns the number of connected components.
func (g *Graph) ComponentCount() int {
	visited := make([]bool, len(g.adj))
	count := 0
	for s := range g.adj {
		if visited[s] {
			continue
		}
		count++
		stack := []int{s}
		visited[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.adj[u] {
				if !visited[e.to] {
					visited[e.to] = true
					stack = append(stack, e.to)
				}
			}
		}
	}
	return count
}

// HopDistance returns the unweighted hop count from u to v, or -1 if v is
// unreachable.
func (g *Graph) HopDistance(u, v int) int {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return -1
	}
	if u == v {
		return 0
	}
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[x] {
			if dist[e.to] < 0 {
				dist[e.to] = dist[x] + 1
				if e.to == v {
					return dist[e.to]
				}
				queue = append(queue, e.to)
			}
		}
	}
	return -1
}

// IsomorphicUnderMapping verifies that applying the vertex relabeling phi to
// g yields exactly h: phi must be a bijection on [0,n) and xy ∈ E(g) iff
// phi(x)phi(y) ∈ E(h), with equal weights. This is the executable form of
// the paper's Theorem 2 (PROP-G preserves the overlay up to isomorphism).
func IsomorphicUnderMapping(g, h *Graph, phi []int) error {
	n := g.NumVertices()
	if h.NumVertices() != n {
		return fmt.Errorf("graph: vertex counts differ: %d vs %d", n, h.NumVertices())
	}
	if len(phi) != n {
		return fmt.Errorf("graph: mapping length %d, want %d", len(phi), n)
	}
	seen := make([]bool, n)
	for x, y := range phi {
		if y < 0 || y >= n {
			return fmt.Errorf("graph: phi(%d)=%d out of range", x, y)
		}
		if seen[y] {
			return fmt.Errorf("graph: phi is not injective at image %d", y)
		}
		seen[y] = true
	}
	if g.NumEdges() != h.NumEdges() {
		return fmt.Errorf("graph: edge counts differ: %d vs %d", g.NumEdges(), h.NumEdges())
	}
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if u > e.to {
				continue
			}
			hw, ok := h.Weight(phi[u], phi[e.to])
			if !ok {
				return fmt.Errorf("graph: edge {%d,%d} has no image {%d,%d}", u, e.to, phi[u], phi[e.to])
			}
			if hw != e.w {
				return fmt.Errorf("graph: edge {%d,%d} weight %v maps to weight %v", u, e.to, e.w, hw)
			}
		}
	}
	return nil
}

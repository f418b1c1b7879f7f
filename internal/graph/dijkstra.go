package graph

import "math"

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// ShortestPaths computes single-source shortest path distances from src
// using Dijkstra over the graph's frozen CSR view (cached across calls on a
// static graph; see Frozen). Unreachable vertices get +Inf. The returned
// slice has length g.NumVertices().
func (g *Graph) ShortestPaths(src int) []float64 {
	return g.Frozen().ShortestPaths(src)
}

// ShortestPathTree computes distances plus the predecessor of each vertex
// on some shortest path from src (prev[src] == -1; unreachable vertices
// also get -1). Tie-breaks between equal-cost paths follow the frozen
// view's sorted neighbor order, so the tree is deterministic regardless of
// edge insertion order.
func (g *Graph) ShortestPathTree(src int) (dist []float64, prev []int) {
	return g.Frozen().ShortestPathTree(src)
}

// PathTo reconstructs the vertex sequence src..dst from a predecessor array
// produced by ShortestPathTree(src). It returns nil if dst is unreachable.
func PathTo(prev []int, src, dst int) []int {
	if dst < 0 || dst >= len(prev) {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	if prev[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
		if len(rev) > len(prev) {
			return nil // cycle guard; malformed prev
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// BellmanFord computes single-source shortest paths by relaxation. It is
// O(V·E) and exists as an independent oracle for property-testing Dijkstra.
func (g *Graph) BellmanFord(src int) []float64 {
	n := len(g.adj)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	for iter := 0; iter < n-1; iter++ {
		changed := false
		for u := range g.adj {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, e := range g.adj[u] {
				if nd := dist[u] + e.w; nd < dist[e.to] {
					dist[e.to] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// Package graphtest holds the reference shortest-path search that every
// exactness test of the repository's Dijkstra kernels checks against, in the
// manner of net/http/httptest: tests import it, program code never does. It
// keeps no queue and no CSR, sharing no code with those kernels, and reads a
// graph through a callback, so each test supplies its own arcs and weights.
package graphtest

import "math"

// Arcs calls visit for every arc out of u, with the arc's head and weight,
// until visit returns false. graph.Graph.VisitNeighbors has this shape.
type Arcs func(u int, visit func(v int, w float64) bool)

// Dijkstra returns the shortest-path distances from src to the vertices
// 0..n-1 of the graph arcs describes, +Inf for those src does not reach.
// delay, when not nil, is a per-vertex cost added after the weight of every
// arc into the vertex: an arc u→v offers v the time fl(fl(dist[u]+w)+delay(v)),
// as the overlay's floods add a slot's processing delay. Weights and delays
// must be non-negative or +Inf.
//
// Each round scans the reached, unsettled vertices for the least tentative
// distance, settles all of them at it (none can improve) and relaxes their
// arcs: O(V²) at worst, one round per distinct distance. No distance depends
// on the order in which tied vertices settle (DESIGN.md §7 "Tie order"), so
// the results are bit-equal to any correct Dijkstra's.
func Dijkstra(n, src int, arcs Arcs, delay func(v int) float64) []float64 {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if src < 0 || src >= n {
		return dist
	}
	settled := make([]bool, n)
	dist[src] = 0
	reached := []int{src} // reached and not yet settled
	var least []int       // the reached vertices at the least distance
	var du float64
	relax := func(v int, w float64) bool {
		d := du + w
		if delay != nil {
			d += delay(v)
		}
		if !settled[v] && d < dist[v] {
			if math.IsInf(dist[v], 1) {
				reached = append(reached, v)
			}
			dist[v] = d
		}
		return true
	}
	for len(reached) > 0 {
		lo := dist[reached[0]]
		for _, v := range reached {
			lo = min(lo, dist[v])
		}
		least = least[:0]
		rest := reached[:0]
		for _, v := range reached {
			if dist[v] == lo {
				least = append(least, v)
				settled[v] = true
			} else {
				rest = append(rest, v)
			}
		}
		reached = rest
		for _, u := range least {
			du = dist[u]
			arcs(u, relax)
		}
	}
	return dist
}

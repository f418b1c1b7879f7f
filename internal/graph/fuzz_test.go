package graph

import (
	"testing"
)

// FuzzGraphOps drives a random add/remove sequence and checks structural
// invariants after every operation: the edge counter matches reality, the
// degree sum equals 2m, and symmetry always holds.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 254, 253, 1, 2, 3, 9, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 12
		g := New(n)
		for i := 0; i+2 < len(ops); i += 3 {
			u := int(ops[i]) % n
			v := int(ops[i+1]) % n
			switch ops[i+2] % 3 {
			case 0:
				if u != v {
					g.MustAddEdge(u, v, float64(ops[i+2])+1)
				}
			case 1:
				g.RemoveEdge(u, v)
			case 2:
				g.HasEdge(u, v)
			}
			// Invariants.
			degSum := 0
			edges := 0
			for x := 0; x < n; x++ {
				degSum += g.Degree(x)
				for _, y := range g.Neighbors(x) {
					if !g.HasEdge(y, x) {
						t.Fatalf("asymmetric edge %d-%d", x, y)
					}
					if x < y {
						edges++
					}
				}
			}
			if degSum != 2*g.NumEdges() {
				t.Fatalf("degree sum %d != 2m %d", degSum, 2*g.NumEdges())
			}
			if edges != g.NumEdges() {
				t.Fatalf("edge counter %d != enumerated %d", g.NumEdges(), edges)
			}
		}
		// Component counts partition the vertices.
		total := 0
		seen := make([]bool, n)
		for s := 0; s < n; s++ {
			if !seen[s] {
				comp := g.Frozen().Component(s)
				total += len(comp)
				for _, v := range comp {
					seen[v] = true
				}
			}
		}
		if total != n {
			t.Fatalf("components cover %d of %d vertices", total, n)
		}
	})
}

// FuzzShortestPaths holds Frozen.ShortestPathsInto to the graphtest
// reference, bit for bit from every source, on fuzz-shaped graphs whose
// weights include zero and fractions.
func FuzzShortestPaths(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const n = 10
		g := New(n)
		for i := 0; i+2 < len(raw); i += 3 {
			u := int(raw[i]) % n
			v := int(raw[i+1]) % n
			if u != v {
				g.MustAddEdge(u, v, float64(raw[i+2])/8)
			}
		}
		for src := 0; src < n; src++ {
			if got, want := shortestPaths(g, src), reference(g, src); !sameBits(got, want) {
				t.Fatalf("src %d: ShortestPathsInto %v, reference %v", src, got, want)
			}
		}
	})
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/event"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// shape is one canonical overlay geometry of the §4.1 claim: edges lists
// its logical edges over n slots, check tests the wired overlay's exact
// structure (edge count, connectivity and degree signature).
type shape struct {
	name  string
	n     int
	edges func(n int) [][2]int
	check func(o *overlay.Overlay, n int) error
}

// everyShape lists the ring (the Chord skeleton), the binary hypercube, the
// complete binary tree in heap order and the 2-d wrap-around torus (the CAN
// skeleton).
var everyShape = []shape{
	{"ring", 64, func(n int) (e [][2]int) {
		for i := 0; i < n; i++ {
			e = append(e, [2]int{i, (i + 1) % n})
		}
		return e
	}, func(o *overlay.Overlay, n int) error {
		return degreeSignature(o, n, n, func(u, d int) bool { return d == 2 })
	}},
	{"hypercube", 64, func(n int) (e [][2]int) {
		for i := 0; i < n; i++ {
			for bit := 1; bit < n; bit <<= 1 {
				if j := i ^ bit; i < j {
					e = append(e, [2]int{i, j})
				}
			}
		}
		return e
	}, func(o *overlay.Overlay, n int) error {
		for u := 0; u < n; u++ {
			for _, v := range o.Neighbors(u) {
				if x := u ^ v; x&(x-1) != 0 {
					return fmt.Errorf("edge %d-%d differs in more than one bit", u, v)
				}
			}
		}
		return degreeSignature(o, n, n*6/2, func(u, d int) bool { return d == 6 })
	}},
	{"tree", 63, func(n int) (e [][2]int) {
		for i := 1; i < n; i++ {
			e = append(e, [2]int{i, (i - 1) / 2})
		}
		return e
	}, func(o *overlay.Overlay, n int) error {
		leaves := 0
		for u := 0; u < n; u++ {
			if o.Degree(u) == 1 {
				leaves++
			}
		}
		if leaves != (n+1)/2 {
			return fmt.Errorf("%d leaves, want %d", leaves, (n+1)/2)
		}
		return degreeSignature(o, n, n-1, func(u, d int) bool { return d == 1 || d == 3 || u == 0 && d == 2 })
	}},
	{"torus", 64, func(n int) (e [][2]int) {
		const side = 8
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				e = append(e, [2]int{r*side + c, r*side + (c+1)%side}, [2]int{r*side + c, (r+1)%side*side + c})
			}
		}
		return e
	}, func(o *overlay.Overlay, n int) error {
		return degreeSignature(o, n, 2*n, func(u, d int) bool { return d == 4 })
	}},
}

// degreeSignature checks a connected graph's edge count and every vertex's
// degree.
func degreeSignature(o *overlay.Overlay, n, edges int, ok func(u, d int) bool) error {
	if got := o.Logical.NumEdges(); got != edges {
		return fmt.Errorf("%d edges, want %d", got, edges)
	}
	if !o.Connected() {
		return fmt.Errorf("not connected")
	}
	for u := 0; u < n; u++ {
		if d := o.Degree(u); !ok(u, d) {
			return fmt.Errorf("vertex %d has degree %d", u, d)
		}
	}
	return nil
}

// TestPROPGPreservesEveryShape is the executable form of the §4.1 claim
// that PROP-G "is suitable for different topologies: ring, hypercube,
// tree": run PROP-G on each geometry and verify the logical structure is
// bit-identical afterwards while the mapping improved (or at least never
// regressed).
func TestPROPGPreservesEveryShape(t *testing.T) {
	for _, s := range everyShape {
		s := s
		t.Run(s.name, func(t *testing.T) {
			r := rng.New(7)
			o, err := overlay.New(r.Perm(1000)[:s.n], lineLat)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range s.edges(s.n) {
				if err := o.AddEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.check(o, s.n); err != nil {
				t.Fatalf("%s over %d nodes: %v", s.name, s.n, err)
			}
			edgesBefore := o.Logical.Edges()
			latBefore := o.MeanLinkLatency()
			p, err := New(o, DefaultConfig(PROPG), r.Split())
			if err != nil {
				t.Fatal(err)
			}
			e := event.New()
			p.Start(e)
			e.RunUntil(30 * 60000)
			edgesAfter := o.Logical.Edges()
			if len(edgesBefore) != len(edgesAfter) {
				t.Fatalf("edge count changed: %d -> %d", len(edgesBefore), len(edgesAfter))
			}
			for i := range edgesBefore {
				if edgesBefore[i] != edgesAfter[i] {
					t.Fatalf("edge %d changed", i)
				}
			}
			if o.MeanLinkLatency() > latBefore {
				t.Fatalf("latency regressed: %.1f -> %.1f", latBefore, o.MeanLinkLatency())
			}
			if p.Counters.Exchanges == 0 {
				t.Fatalf("no exchanges on %s", s.name)
			}
			if !o.Connected() {
				t.Fatal("disconnected")
			}
		})
	}
}

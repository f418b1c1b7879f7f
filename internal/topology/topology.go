// Package topology builds the canonical structured overlay shapes the paper
// names when arguing PROP-G's generality (§4.1: "as an auxiliary method, it
// is suitable for different topologies: ring, hypercube, tree, and so on").
//
// Build returns a slot/host overlay whose logical graph is the exact
// mathematical object — a cycle, a binary hypercube, a complete k-ary tree,
// a 2-d torus grid — so the PROP-G isomorphism guarantee can be exercised
// and property-tested on every geometry the claim covers.
//
// Entry points: Build (by Kind) and Verify.
// See DESIGN.md §1.
package topology

import (
	"fmt"

	"repro/internal/overlay"
)

// Kind names a supported overlay shape.
type Kind string

const (
	// Ring is a simple cycle (the Chord geometry skeleton).
	Ring Kind = "ring"
	// Hypercube is the d-dimensional binary hypercube (requires 2^d hosts).
	Hypercube Kind = "hypercube"
	// Tree is a complete binary tree.
	Tree Kind = "tree"
	// Torus is a 2-d wrap-around grid (the CAN geometry skeleton; requires
	// a perfect square host count).
	Torus Kind = "torus"
)

// Kinds lists every supported shape.
func Kinds() []Kind { return []Kind{Ring, Hypercube, Tree, Torus} }

// Build constructs the named shape over the given hosts and verifies the
// result structurally before returning it.
func Build(kind Kind, hosts []int, lat overlay.LatencyFunc) (*overlay.Overlay, error) {
	wire, ok := wiring[kind]
	if !ok {
		return nil, fmt.Errorf("topology: unknown kind %q", kind)
	}
	o, err := overlay.New(hosts, lat)
	if err != nil {
		return nil, err
	}
	if err := wire(o, len(hosts)); err != nil {
		return nil, err
	}
	if err := Verify(kind, o); err != nil {
		return nil, err
	}
	return o, nil
}

// wiring adds each shape's logical edges to a fresh n-slot overlay.
var wiring = map[Kind]func(o *overlay.Overlay, n int) error{
	Ring: wireRing, Hypercube: wireHypercube, Tree: wireTree, Torus: wireTorus,
}

// Verify checks that the overlay's logical graph is exactly the named shape
// — edge count, connectivity, and the shape's degree signature — using the
// frozen CSR view of the logical graph (one linear snapshot instead of
// per-vertex map walks). The check is the executable form of each builder's
// contract; Build runs it on every construction.
func Verify(kind Kind, o *overlay.Overlay) error {
	n := o.NumSlots()
	fz := o.Logical.Frozen()
	want, err := ExpectedEdges(kind, n)
	if err != nil {
		return err
	}
	if got := fz.NumEdges(); got != want {
		return fmt.Errorf("topology: %s over %d nodes has %d edges, want %d", kind, n, got, want)
	}
	if !fz.Connected() {
		return fmt.Errorf("topology: %s over %d nodes is not connected", kind, n)
	}
	switch kind {
	case Ring:
		for u := 0; u < n; u++ {
			if d := fz.Degree(u); d != 2 {
				return fmt.Errorf("topology: ring vertex %d has degree %d, want 2", u, d)
			}
		}
	case Hypercube:
		dim := 0
		for m := n; m > 1; m >>= 1 {
			dim++
		}
		for u := 0; u < n; u++ {
			if d := fz.Degree(u); d != dim {
				return fmt.Errorf("topology: hypercube vertex %d has degree %d, want %d", u, d, dim)
			}
		}
	case Tree:
		for u := 0; u < n; u++ {
			if d := fz.Degree(u); d < 1 || d > 3 {
				return fmt.Errorf("topology: tree vertex %d has degree %d, want 1..3", u, d)
			}
		}
	case Torus:
		for u := 0; u < n; u++ {
			if d := fz.Degree(u); d != 4 {
				return fmt.Errorf("topology: torus vertex %d has degree %d, want 4", u, d)
			}
		}
	}
	return nil
}

// wireRing connects the n slots in a cycle.
func wireRing(o *overlay.Overlay, n int) error {
	if n < 3 {
		return fmt.Errorf("topology: ring needs >= 3 nodes, got %d", n)
	}
	for i := 0; i < n; i++ {
		if err := o.AddEdge(i, (i+1)%n); err != nil {
			return err
		}
	}
	return nil
}

// wireHypercube links slots whose indices differ in exactly one bit. The
// host count must be a power of two.
func wireHypercube(o *overlay.Overlay, n int) error {
	if n < 2 || n&(n-1) != 0 {
		return fmt.Errorf("topology: hypercube needs a power-of-two node count, got %d", n)
	}
	for i := 0; i < n; i++ {
		for bit := 1; bit < n; bit <<= 1 {
			if j := i ^ bit; i < j {
				if err := o.AddEdge(i, j); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// wireTree links slot i to its children 2i+1 and 2i+2 — a complete binary
// tree in heap order.
func wireTree(o *overlay.Overlay, n int) error {
	if n < 2 {
		return fmt.Errorf("topology: tree needs >= 2 nodes, got %d", n)
	}
	for i := 1; i < n; i++ {
		if err := o.AddEdge(i, (i-1)/2); err != nil {
			return err
		}
	}
	return nil
}

// wireTorus arranges the slots in a √n × √n wrap-around grid. The host
// count must be a perfect square of side >= 3 (smaller sides collapse the
// wrap edges into duplicates).
func wireTorus(o *overlay.Overlay, n int) error {
	side := intSqrt(n)
	if side*side != n || side < 3 {
		return fmt.Errorf("topology: torus needs a perfect-square node count with side >= 3, got %d", n)
	}
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if err := o.AddEdge(at(r, c), at(r, (c+1)%side)); err != nil {
				return err
			}
			if err := o.AddEdge(at(r, c), at((r+1)%side, c)); err != nil {
				return err
			}
		}
	}
	return nil
}

func intSqrt(n int) int {
	if n < 0 {
		return 0
	}
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

// ExpectedEdges returns the edge count of the shape over n nodes, for
// structural verification.
func ExpectedEdges(kind Kind, n int) (int, error) {
	switch kind {
	case Ring:
		return n, nil
	case Hypercube:
		d := 0
		for m := n; m > 1; m >>= 1 {
			d++
		}
		return n * d / 2, nil
	case Tree:
		return n - 1, nil
	case Torus:
		return 2 * n, nil
	default:
		return 0, fmt.Errorf("topology: unknown kind %q", kind)
	}
}

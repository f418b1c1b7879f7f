// Package can implements a two-dimensional Content-Addressable Network
// (Ratnasamy et al., SIGCOMM '01) over the slot/host overlay model — the
// second structured substrate of the paper's evaluation, and the home of
// the PIS baseline ("topologically-aware CAN": physically close nodes are
// placed close in the coordinate space via landmark binning).
//
// The coordinate space is the unit torus [0,1)². Every slot owns a
// rectangular zone; the zones exactly tile the torus. A node joins at a
// point: the zone containing the point splits along its longer side and the
// newcomer takes the half containing its point. Neighbors are zones that
// abut along a border of positive length; greedy routing forwards to the
// neighbor zone nearest the target point.
//
// Key types: Space (the zone tiling plus routing) and Zone. The package's
// place in the system is DESIGN.md §1; the PIS-combination experiment is
// §2 ("proximity").
package can

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// Point is a location on the unit torus.
type Point struct{ X, Y float64 }

// RandomPoint returns a uniform point on the torus.
func RandomPoint(r *rng.Rand) Point { return Point{X: r.Float64(), Y: r.Float64()} }

// Zone is a half-open rectangle [X0,X1)×[Y0,Y1) of the unit square.
// (Zones never wrap: splits only ever shrink the initial unit square.)
type Zone struct{ X0, X1, Y0, Y1 float64 }

// Contains reports whether p lies in the zone.
func (z Zone) Contains(p Point) bool {
	return p.X >= z.X0 && p.X < z.X1 && p.Y >= z.Y0 && p.Y < z.Y1
}

// Area returns the zone's area.
func (z Zone) Area() float64 { return (z.X1 - z.X0) * (z.Y1 - z.Y0) }

// Config parameterizes CAN construction.
type Config struct {
	// Landmarks, if non-empty, enables PIS: each joining node measures its
	// latency to every landmark host, and the resulting landmark ordering
	// selects a bin (a vertical strip of the space) in which the node picks
	// its join point. Physically close nodes share orderings and therefore
	// strips. Empty Landmarks means plain uniform join points.
	Landmarks []int
}

// Space is a built CAN.
type Space struct {
	// O is the underlying overlay; logical edges connect abutting zones.
	O *overlay.Overlay
	// Zones holds each slot's zone.
	Zones []Zone
	// JoinPoint records the point each node joined at.
	JoinPoint []Point
	cfg       Config

	// The zone split tree: every join splits a leaf; leaves own the live
	// zones. Maintained so churn (Join/Leave, churn.go) is local surgery.
	root   *treeNode
	leafOf map[int]*treeNode
}

// Build constructs a CAN over hosts. The first host owns the whole space;
// each subsequent host joins at a point (uniform, or landmark-binned under
// PIS) and splits the zone containing it.
func Build(hosts []int, cfg Config, lat overlay.LatencyFunc, r *rng.Rand) (*Space, error) {
	n := len(hosts)
	if n < 2 {
		return nil, fmt.Errorf("can: need at least 2 nodes, got %d", n)
	}
	o, err := overlay.New(hosts, lat)
	if err != nil {
		return nil, err
	}
	sp := &Space{
		O:         o,
		Zones:     make([]Zone, n),
		JoinPoint: make([]Point, n),
		cfg:       cfg,
		leafOf:    make(map[int]*treeNode, n),
	}
	sp.Zones[0] = Zone{X0: 0, X1: 1, Y0: 0, Y1: 1}
	sp.JoinPoint[0] = sp.joinPoint(hosts[0], r)
	sp.root = &treeNode{zone: sp.Zones[0], owner: 0}
	sp.leafOf[0] = sp.root
	for slot := 1; slot < n; slot++ {
		p := sp.joinPoint(hosts[slot], r)
		sp.JoinPoint[slot] = p
		occupantLeaf := sp.leafContaining(p)
		occupant := occupantLeaf.owner
		newcomer, keeper := splitZone(occupantLeaf.zone, p)
		kidKeeper := &treeNode{zone: keeper, owner: occupant, parent: occupantLeaf, depth: occupantLeaf.depth + 1}
		kidNew := &treeNode{zone: newcomer, owner: slot, parent: occupantLeaf, depth: occupantLeaf.depth + 1}
		occupantLeaf.kids = [2]*treeNode{kidKeeper, kidNew}
		sp.leafOf[occupant] = kidKeeper
		sp.leafOf[slot] = kidNew
		sp.Zones[slot] = newcomer
		sp.Zones[occupant] = keeper
	}
	// Neighbor discovery: O(n²) scan, run once at build time.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if zonesAbut(sp.Zones[a], sp.Zones[b]) {
				if err := o.AddEdge(a, b); err != nil {
					return nil, err
				}
			}
		}
	}
	if !o.Connected() {
		return nil, fmt.Errorf("can: zone adjacency graph not connected")
	}
	return sp, nil
}

// joinPoint picks the coordinate-space point a host joins at: uniform for
// plain CAN, landmark-binned for PIS. The host need not back a slot yet.
func (sp *Space) joinPoint(host int, r *rng.Rand) Point {
	m := len(sp.cfg.Landmarks)
	if m == 0 {
		return RandomPoint(r)
	}
	// Order landmarks by latency from this host.
	type ld struct {
		idx int
		d   float64
	}
	order := make([]ld, m)
	for i, l := range sp.cfg.Landmarks {
		order[i] = ld{idx: i, d: sp.O.Latency(host, l)}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].d != order[j].d {
			return order[i].d < order[j].d
		}
		return order[i].idx < order[j].idx
	})
	perm := make([]int, m)
	for i, o := range order {
		perm[i] = o.idx
	}
	// The ordering selects one of m! vertical strips (Ratnasamy's binning).
	bin := permIndex(perm)
	strips := factorial(m)
	width := 1.0 / float64(strips)
	x := (float64(bin) + float64(r.Float64())) * width
	return Point{X: x, Y: r.Float64()}
}

// permIndex returns the lexicographic rank of a permutation of [0,m).
func permIndex(perm []int) int {
	m := len(perm)
	rank := 0
	for i := 0; i < m; i++ {
		smaller := 0
		for j := i + 1; j < m; j++ {
			if perm[j] < perm[i] {
				smaller++
			}
		}
		rank += smaller * factorial(m-1-i)
	}
	return rank
}

func factorial(m int) int {
	f := 1
	for i := 2; i <= m; i++ {
		f *= i
	}
	return f
}

// ZoneOf returns the slot whose zone contains p — a descent of the split
// tree, so it stays correct under churn (dead slots keep stale Zones
// entries, but they are no longer tree leaves).
func (sp *Space) ZoneOf(p Point) int {
	if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
		panic(fmt.Sprintf("can: point %+v outside the unit torus", p))
	}
	return sp.leafContaining(p).owner
}

// splitZone cuts z in half along its longer side (ties split X) and returns
// (the half containing p, the other half).
func splitZone(z Zone, p Point) (withP, other Zone) {
	if z.X1-z.X0 >= z.Y1-z.Y0 {
		mid := (z.X0 + z.X1) / 2
		left := Zone{X0: z.X0, X1: mid, Y0: z.Y0, Y1: z.Y1}
		right := Zone{X0: mid, X1: z.X1, Y0: z.Y0, Y1: z.Y1}
		if p.X < mid {
			return left, right
		}
		return right, left
	}
	mid := (z.Y0 + z.Y1) / 2
	bottom := Zone{X0: z.X0, X1: z.X1, Y0: z.Y0, Y1: mid}
	top := Zone{X0: z.X0, X1: z.X1, Y0: mid, Y1: z.Y1}
	if p.Y < mid {
		return bottom, top
	}
	return top, bottom
}

// zonesAbut reports whether two zones share a border of positive length on
// the torus.
func zonesAbut(a, b Zone) bool {
	// Abut in X (including across the torus seam) and overlap in Y…
	if (touchesCircular(a.X0, a.X1, b.X0, b.X1)) && overlapLen(a.Y0, a.Y1, b.Y0, b.Y1) > 0 {
		return true
	}
	// …or abut in Y and overlap in X.
	if (touchesCircular(a.Y0, a.Y1, b.Y0, b.Y1)) && overlapLen(a.X0, a.X1, b.X0, b.X1) > 0 {
		return true
	}
	return false
}

// touchesCircular reports whether intervals [a0,a1) and [b0,b1) of the unit
// circle touch end-to-end (a1 == b0 or b1 == a0, possibly across the seam).
func touchesCircular(a0, a1, b0, b1 float64) bool {
	eq := func(x, y float64) bool { return math.Abs(x-y) < 1e-12 }
	if eq(a1, b0) || eq(b1, a0) {
		return true
	}
	// Torus seam: 1 wraps to 0.
	if (eq(a1, 1) && eq(b0, 0)) || (eq(b1, 1) && eq(a0, 0)) {
		return true
	}
	return false
}

// overlapLen returns the overlap length of intervals [a0,a1) and [b0,b1).
func overlapLen(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi > lo {
		return hi - lo
	}
	return 0
}

// torusAxisDist returns the circular distance between coordinates s and t.
func torusAxisDist(s, t float64) float64 {
	d := math.Abs(s - t)
	return math.Min(d, 1-d)
}

// zonePointDist returns the torus distance from the nearest point of z to p.
func zonePointDist(z Zone, p Point) float64 {
	dx := axisIntervalDist(p.X, z.X0, z.X1)
	dy := axisIntervalDist(p.Y, z.Y0, z.Y1)
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

// axisIntervalDist returns the circular distance from coordinate t to the
// interval [lo,hi).
func axisIntervalDist(t, lo, hi float64) float64 {
	if t >= lo && t < hi {
		return 0
	}
	return math.Min(torusAxisDist(t, lo), torusAxisDist(t, hi))
}

// Route greedily forwards from slot src to the owner of the target point
// (overlay.Route, within len(Zones) hops), always moving to the neighbor
// zone nearest the target (ties to the lowest slot; visited zones are never
// re-entered).
func (sp *Space) Route(src int, target Point) (overlay.LookupResult, error) {
	var buf [64]int // greedy routes stay far shorter, so visited lives on the stack
	visited := append(buf[:0], src)
	return sp.O.Route(src, sp.ZoneOf(target), len(sp.Zones), func(cur int) int {
		best, bestD := cur, math.Inf(1)
		sp.O.Logical.VisitNeighbors(cur, func(nb int, _ float64) bool {
			if !sp.O.Alive(nb) || slices.Contains(visited, nb) {
				return true
			}
			if d := zonePointDist(sp.Zones[nb], target); d < bestD || (d == bestD && nb < best) {
				best, bestD = nb, d
			}
			return true
		})
		visited = append(visited, best)
		return best
	})
}

package can

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func lat(a, b int) float64 { return math.Abs(float64(a - b)) }

func hostsN(n int) []int {
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i * 5
	}
	return hosts
}

func buildSpace(t *testing.T, n int, seed uint64) *Space {
	t.Helper()
	sp, err := Build(hostsN(n), Config{}, lat, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(hostsN(1), Config{}, lat, rng.New(1)); err == nil {
		t.Error("single node accepted")
	}
}

func TestZonesTileTheTorus(t *testing.T) {
	sp := buildSpace(t, 200, 42)
	total := 0.0
	for _, z := range sp.Zones {
		if z.X0 >= z.X1 || z.Y0 >= z.Y1 {
			t.Fatalf("degenerate zone %+v", z)
		}
		total += z.Area()
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("zone areas sum to %v, want 1", total)
	}
	// No two zones overlap: sample random points, each must be in exactly
	// one zone.
	r := rng.New(7)
	for i := 0; i < 2000; i++ {
		p := RandomPoint(r)
		count := 0
		for _, z := range sp.Zones {
			if z.Contains(p) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("point %+v contained in %d zones", p, count)
		}
	}
}

func TestZonesTileProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(100)
		sp, err := Build(hostsN(n), Config{}, lat, r)
		if err != nil {
			return false
		}
		total := 0.0
		for _, z := range sp.Zones {
			total += z.Area()
		}
		return math.Abs(total-1) < 1e-9 && sp.O.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsAbut(t *testing.T) {
	sp := buildSpace(t, 100, 3)
	for s := 0; s < sp.O.NumSlots(); s++ {
		for _, nb := range sp.O.Neighbors(s) {
			if !zonesAbut(sp.Zones[s], sp.Zones[nb]) {
				t.Fatalf("slots %d,%d linked but zones %+v %+v do not abut",
					s, nb, sp.Zones[s], sp.Zones[nb])
			}
		}
	}
}

func TestZoneOf(t *testing.T) {
	sp := buildSpace(t, 50, 5)
	for s, z := range sp.Zones {
		if got := sp.ZoneOf(z.Center()); got != s {
			t.Fatalf("ZoneOf(center of %d) = %d", s, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-torus point accepted")
		}
	}()
	sp.ZoneOf(Point{X: 1.5, Y: 0})
}

func TestRouteReachesOwner(t *testing.T) {
	sp := buildSpace(t, 256, 9)
	r := rng.New(77)
	for i := 0; i < 400; i++ {
		src := r.Intn(256)
		target := RandomPoint(r)
		res, err := sp.Route(src, target, nil)
		if err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
		if res.Owner != sp.ZoneOf(target) {
			t.Fatalf("route reached %d, owner is %d", res.Owner, sp.ZoneOf(target))
		}
		if res.Path[len(res.Path)-1] != res.Owner {
			t.Fatalf("path does not end at owner: %v", res.Path)
		}
	}
}

func TestRouteSelfZone(t *testing.T) {
	sp := buildSpace(t, 64, 21)
	z := sp.Zones[10]
	res, err := sp.Route(10, z.Center(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops != 0 || res.Latency != 0 || res.Owner != 10 {
		t.Fatalf("self route: %+v", res)
	}
}

func TestRouteFromDeadSlot(t *testing.T) {
	sp := buildSpace(t, 16, 2)
	if _, err := sp.Route(999, Point{X: 0.5, Y: 0.5}, nil); err == nil {
		t.Fatal("route from invalid slot accepted")
	}
}

func TestRouteHopsScaleAsSqrtN(t *testing.T) {
	sp := buildSpace(t, 1024, 13)
	r := rng.New(1)
	totalHops := 0
	const routes = 200
	for i := 0; i < routes; i++ {
		res, err := sp.Route(r.Intn(1024), RandomPoint(r), nil)
		if err != nil {
			t.Fatal(err)
		}
		totalHops += res.Hops
	}
	avg := float64(totalHops) / routes
	// 2-d CAN expects O(sqrt(n)) = 32 hops; average should be well below 64.
	if avg > 64 {
		t.Fatalf("average hops %.1f too high for n=1024", avg)
	}
}

func TestRouteProcessingDelay(t *testing.T) {
	sp := buildSpace(t, 128, 31)
	r := rng.New(4)
	src := r.Intn(128)
	target := RandomPoint(r)
	base, err := sp.Route(src, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	withProc, err := sp.Route(src, target, func(int) float64 { return 7 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withProc.Latency-base.Latency-float64(base.Hops)*7) > 1e-9 {
		t.Fatalf("processing delay accounting off: %v vs %v (%d hops)",
			base.Latency, withProc.Latency, base.Hops)
	}
}

func TestPISClustersCloseHosts(t *testing.T) {
	// Hosts on a line; landmarks at the two ends plus middle. PIS should
	// place hosts with similar landmark orderings in the same strip, so the
	// X coordinates of physically close hosts should cluster.
	n := 300
	hosts := hostsN(n)
	landmarks := []int{hosts[0], hosts[n/2], hosts[n-1]}
	sp, err := Build(hosts, Config{Landmarks: landmarks}, lat, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	// Any two hosts in the same short physical segment share a bin, hence a
	// strip of width 1/6; their join-point X difference must be < 1/6.
	for i := 10; i < 40; i++ {
		dx := math.Abs(sp.JoinPoint[i].X - sp.JoinPoint[i+1].X)
		if dx > 1.0/6+1e-9 {
			t.Fatalf("adjacent hosts %d,%d landed %v apart in X", i, i+1, dx)
		}
	}
	// PIS must reduce mean logical link latency vs plain CAN.
	plain, err := Build(hosts, Config{}, lat, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	if sp.O.MeanLinkLatency() >= plain.O.MeanLinkLatency() {
		t.Fatalf("PIS link latency %.1f not below plain %.1f",
			sp.O.MeanLinkLatency(), plain.O.MeanLinkLatency())
	}
}

func TestPISRoutesCorrectly(t *testing.T) {
	n := 200
	hosts := hostsN(n)
	sp, err := Build(hosts, Config{Landmarks: []int{hosts[0], hosts[n-1]}}, lat, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	for i := 0; i < 200; i++ {
		target := RandomPoint(r)
		res, err := sp.Route(r.Intn(n), target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner != sp.ZoneOf(target) {
			t.Fatal("PIS route reached wrong owner")
		}
	}
}

func TestPermIndex(t *testing.T) {
	cases := []struct {
		perm []int
		want int
	}{
		{[]int{0, 1, 2}, 0},
		{[]int{0, 2, 1}, 1},
		{[]int{1, 0, 2}, 2},
		{[]int{1, 2, 0}, 3},
		{[]int{2, 0, 1}, 4},
		{[]int{2, 1, 0}, 5},
		{[]int{0}, 0},
	}
	for _, c := range cases {
		if got := permIndex(c.perm); got != c.want {
			t.Errorf("permIndex(%v) = %d, want %d", c.perm, got, c.want)
		}
	}
}

func TestFactorial(t *testing.T) {
	want := map[int]int{0: 1, 1: 1, 2: 2, 3: 6, 4: 24}
	for in, out := range want {
		if got := factorial(in); got != out {
			t.Errorf("factorial(%d) = %d", in, got)
		}
	}
}

func TestSplitZone(t *testing.T) {
	z := Zone{X0: 0, X1: 1, Y0: 0, Y1: 0.5} // wider than tall: split X
	withP, other := splitZone(z, Point{X: 0.7, Y: 0.1})
	if withP.X0 != 0.5 || other.X1 != 0.5 {
		t.Fatalf("split halves: %+v %+v", withP, other)
	}
	if !withP.Contains(Point{X: 0.7, Y: 0.1}) {
		t.Fatal("newcomer half does not contain join point")
	}
	tall := Zone{X0: 0, X1: 0.25, Y0: 0, Y1: 1} // taller: split Y
	withP, other = splitZone(tall, Point{X: 0.1, Y: 0.2})
	if withP.Y1 != 0.5 || other.Y0 != 0.5 {
		t.Fatalf("tall split halves: %+v %+v", withP, other)
	}
}

func TestZonesAbutSeam(t *testing.T) {
	a := Zone{X0: 0, X1: 0.5, Y0: 0, Y1: 1}
	b := Zone{X0: 0.5, X1: 1, Y0: 0, Y1: 1}
	if !zonesAbut(a, b) {
		t.Fatal("adjacent halves should abut")
	}
	// Across the torus seam in X.
	if !zonesAbut(b, a) {
		t.Fatal("abutment not symmetric")
	}
	c := Zone{X0: 0, X1: 0.5, Y0: 0, Y1: 0.5}
	d := Zone{X0: 0.5, X1: 1, Y0: 0.5, Y1: 1}
	if zonesAbut(c, d) {
		t.Fatal("diagonal zones should not abut (zero-length corner contact)")
	}
}

func TestZonePointDist(t *testing.T) {
	z := Zone{X0: 0.25, X1: 0.5, Y0: 0.25, Y1: 0.5}
	if d := zonePointDist(z, Point{X: 0.3, Y: 0.3}); d != 0 {
		t.Fatalf("inside point dist = %v", d)
	}
	if d := zonePointDist(z, Point{X: 0.75, Y: 0.3}); math.Abs(d-0.25) > 1e-12 {
		t.Fatalf("side dist = %v, want 0.25", d)
	}
	// Torus wrap: point at X=0.99 is 0.26 from X0=0.25 going left,
	// but only 1-0.99+0.25 = 0.26... and from X1=0.5: 0.49; wrap from 0.99
	// to 0.25 is min(0.74, 0.26) = 0.26.
	if d := zonePointDist(z, Point{X: 0.99, Y: 0.3}); math.Abs(d-0.26) > 1e-12 {
		t.Fatalf("wrap dist = %v, want 0.26", d)
	}
}

package metrics

import (
	"math"
	"testing"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// alHashLat is a deterministic pseudo-random symmetric host latency.
func alHashLat(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	x := uint64(a)*2654435761 + uint64(b)*40503
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return 1 + float64(x%4096)/64
}

// alRingOverlay builds an n-slot ring plus extra random chords on distinct
// hosts 3i+1.
func alRingOverlay(t *testing.T, r *rng.Rand, n, extra int) *overlay.Overlay {
	t.Helper()
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = 3*i + 1
	}
	o, err := overlay.New(hosts, alHashLat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := o.AddEdge(i, (i+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !o.Logical.HasEdge(u, v) {
			if err := o.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return o
}

// alEstimatorErrorBound is the documented accuracy contract of the default
// 16-source sketch on fig-scale overlays: relative error vs exact AL stays
// within 10% across seeds and topologies (SCALING.md "Choosing an AL
// mode"). The property test below pins it.
const alEstimatorErrorBound = 0.10

// TestAverageLatencyFromMatchesExact pins the one eq. (3) implementation —
// parallel bulk rows through the FloodSource seam — against the definition
// written out naively: a sequential sum of pairwise early-exit FloodLatency
// calls, bit-identical.
func TestAverageLatencyFromMatchesExact(t *testing.T) {
	r := rng.New(11)
	o := alRingOverlay(t, r, 96, 64)
	slots := o.AliveSlots()
	want := 0.0
	for _, src := range slots {
		row := 0.0
		for _, dst := range slots {
			if dst != src {
				row += o.FloodLatency(src, dst, nil)
			}
		}
		want += row
	}
	want /= float64(len(slots) * len(slots))
	got, err := AverageLatencyFrom(OverlayFloodSource(o))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("AverageLatencyFrom = %v, pairwise FloodLatency sum = %v", got, want)
	}
}

// TestALEstimatorErrorBound is the property test behind the documented
// bound: across seeds and topology shapes, the default sketch stays within
// alEstimatorErrorBound of exact AL at n ≤ 4096.
func TestALEstimatorErrorBound(t *testing.T) {
	shapes := []struct{ n, extra int }{{256, 128}, {256, 512}, {1024, 1024}}
	if !testing.Short() {
		shapes = append(shapes, struct{ n, extra int }{4096, 8192})
	}
	for _, shape := range shapes {
		for seed := uint64(1); seed <= 5; seed++ {
			r := rng.New(seed)
			o := alRingOverlay(t, r, shape.n, shape.extra)
			fs := OverlayFloodSource(o)
			exact, err := AverageLatencyFrom(fs)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewALEstimator(fs, ALEstimatorOptions{}, rng.New(seed+100))
			if err != nil {
				t.Fatal(err)
			}
			est, err := e.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if est.Sources != 16 || est.Unreachable != 0 {
				t.Fatalf("n=%d seed=%d: estimate %+v, want 16 sources, 0 unreachable", shape.n, seed, est)
			}
			rel := math.Abs(est.AL-exact) / exact
			if rel > alEstimatorErrorBound {
				t.Errorf("n=%d extra=%d seed=%d: est %.4f vs exact %.4f, rel err %.4f > %.2f",
					shape.n, shape.extra, seed, est.AL, exact, rel, alEstimatorErrorBound)
			}
			// The reported standard error must be in a sane relationship to
			// the truth: the actual deviation within 5 sigma.
			if est.StdErr > 0 && math.Abs(est.AL-exact) > 5*est.StdErr {
				t.Errorf("n=%d seed=%d: deviation %.4f exceeds 5×stderr %.4f",
					shape.n, seed, math.Abs(est.AL-exact), est.StdErr)
			}
		}
	}
}

// TestALEstimatorAllSourcesIsExact: when k covers every live slot the
// sketch degenerates to the exact mean of row means, which equals eq. (3)
// up to summation order.
func TestALEstimatorAllSourcesIsExact(t *testing.T) {
	r := rng.New(7)
	o := alRingOverlay(t, r, 64, 64)
	fs := OverlayFloodSource(o)
	exact, err := AverageLatencyFrom(fs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewALEstimator(fs, ALEstimatorOptions{Sources: 1000}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Sources != 64 {
		t.Fatalf("Sources = %d, want clamped to 64", est.Sources)
	}
	if rel := math.Abs(est.AL-exact) / exact; rel > 1e-12 {
		t.Fatalf("full-coverage sketch %.12f vs exact %.12f (rel %.2e)", est.AL, exact, rel)
	}
	if est.StdErr != 0 {
		t.Fatalf("StdErr = %v for a census draw, want 0 (no sampling error)", est.StdErr)
	}
}

// TestALEstimatorSingleSource: k = 1 is a defined degenerate — one row mean
// with StdErr pinned to 0, never NaN (the sample-variance formula would
// divide by k-1 = 0).
func TestALEstimatorSingleSource(t *testing.T) {
	r := rng.New(13)
	o := alRingOverlay(t, r, 48, 32)
	fs := OverlayFloodSource(o)
	e, err := NewALEstimator(fs, ALEstimatorOptions{Sources: 1}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Sources != 1 {
		t.Fatalf("Sources = %d, want 1", est.Sources)
	}
	if math.IsNaN(est.StdErr) || est.StdErr != 0 {
		t.Fatalf("StdErr = %v with one source, want exactly 0", est.StdErr)
	}
	if math.IsNaN(est.AL) || est.AL <= 0 {
		t.Fatalf("AL = %v with one source", est.AL)
	}
}

// TestALEstimatorCrashedSlots: crashed slots leave the alive-slot space, so
// a census over the survivors must match the exact reference over the same
// survivors — crashed peers are neither drawn as sources nor counted as
// destinations, and the degenerate StdErr = 0 contract holds on the
// shrunken slot space too.
func TestALEstimatorCrashedSlots(t *testing.T) {
	r := rng.New(19)
	o := alRingOverlay(t, r, 64, 96)
	for _, slot := range []int{3, 17, 40, 41, 63} {
		o.CrashSlot(slot)
	}
	fs := OverlayFloodSource(o)
	live := len(fs.AliveSlots())
	if live != 59 {
		t.Fatalf("live slots = %d after 5 crashes, want 59", live)
	}
	exact, err := AverageLatencyFrom(fs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewALEstimator(fs, ALEstimatorOptions{Sources: 64}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Sources != live {
		t.Fatalf("Sources = %d, want clamped to %d live slots", est.Sources, live)
	}
	if rel := math.Abs(est.AL-exact) / exact; rel > 1e-12 {
		t.Fatalf("census over survivors %.12f vs exact %.12f (rel %.2e)", est.AL, exact, rel)
	}
	if est.StdErr != 0 {
		t.Fatalf("StdErr = %v for a census over survivors, want 0", est.StdErr)
	}
	if est.Unreachable != 0 {
		t.Fatalf("Unreachable = %d; crashed slots must not count as destinations", est.Unreachable)
	}
}

// TestALEstimatorDeterministic: two estimators with equal generator seeds
// produce identical sketches despite the parallel row fan-out, and
// successive Estimate calls redraw (consuming generator state).
func TestALEstimatorDeterministic(t *testing.T) {
	r := rng.New(3)
	o := alRingOverlay(t, r, 200, 300)
	fs := OverlayFloodSource(o)
	run := func(seed uint64) []ALEstimate {
		e, err := NewALEstimator(fs, ALEstimatorOptions{Sources: 8}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]ALEstimate, 3)
		for i := range out {
			out[i], err = e.Estimate()
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: %+v != %+v", i, a[i], b[i])
		}
	}
	if a[0].AL == a[1].AL && a[1].AL == a[2].AL {
		t.Fatal("successive Estimate calls returned identical AL; sources not redrawn")
	}
}

// TestALEstimatorUnreachable: a partitioned overlay is a measurement
// condition for the sketch and for FiniteAverageLatency (skip and count),
// while the strict exact reference treats it as an error.
func TestALEstimatorUnreachable(t *testing.T) {
	r := rng.New(9)
	o := alRingOverlay(t, r, 32, 0) // pure ring: two cuts partition it
	o.RemoveEdge(0, 1)
	o.RemoveEdge(15, 16)
	fs := OverlayFloodSource(o)
	if _, err := AverageLatencyFrom(fs); err == nil {
		t.Fatal("exact reference accepted a partitioned overlay")
	}
	// The cuts leave two paths, slots 1..15 and 16..31,0. On a path the
	// link between positions k-1 and k lies on the route of k·(len-k)
	// unordered pairs, so the finite mass is twice Σ w·k·(len-k); every
	// cross pair, 2·15·17 ordered ones, is unreachable.
	mass := 0.0
	for _, path := range [][]int{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		{16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 0},
	} {
		for k := 1; k < len(path); k++ {
			w := alHashLat(o.HostOf(path[k-1]), o.HostOf(path[k]))
			mass += 2 * w * float64(k*(len(path)-k))
		}
	}
	al, unreachable, err := FiniteAverageLatency(fs)
	if err != nil {
		t.Fatal(err)
	}
	if want := mass / (32 * 32); math.Abs(al-want) > 1e-12*want {
		t.Fatalf("finite-mass AL = %v, want %v", al, want)
	}
	if unreachable != 2*15*17 {
		t.Fatalf("unreachable pairs = %d, want %d", unreachable, 2*15*17)
	}
	e, err := NewALEstimator(fs, ALEstimatorOptions{Sources: 32}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Unreachable == 0 {
		t.Fatalf("partitioned sketch reports no unreachable pairs: %+v", est)
	}
	if math.IsInf(est.AL, 0) || math.IsNaN(est.AL) || est.AL <= 0 {
		t.Fatalf("partitioned sketch AL = %v", est.AL)
	}
}

// TestALEstimatorErrors covers the constructor and empty-source guards.
func TestALEstimatorErrors(t *testing.T) {
	r := rng.New(5)
	o := alRingOverlay(t, r, 8, 0)
	fs := OverlayFloodSource(o)
	if _, err := NewALEstimator(nil, ALEstimatorOptions{}, rng.New(1)); err == nil {
		t.Fatal("nil FloodSource accepted")
	}
	if _, err := NewALEstimator(fs, ALEstimatorOptions{}, nil); err == nil {
		t.Fatal("nil generator accepted")
	}
	if _, err := NewALEstimator(fs, ALEstimatorOptions{Sources: -1}, rng.New(1)); err == nil {
		t.Fatal("negative source count accepted")
	}
	for i := 0; i < 8; i++ {
		o.CrashSlot(i)
	}
	e, err := NewALEstimator(fs, ALEstimatorOptions{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(); err == nil {
		t.Fatal("empty overlay accepted")
	}
}

package metrics

import (
	"fmt"
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

// alTestProc exercises the processing-delay term.
func alTestProc(slot int) float64 { return float64(slot%3) * 0.25 }

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

// alExactRef refloods every live slot sequentially — the independent exact
// reference, tolerant of unreachable pairs (unlike AverageLatency).
func alExactRef(o *overlay.Overlay, proc overlay.ProcDelayFunc) (al float64, unreachable int) {
	alive := o.AliveSlots()
	a := len(alive)
	if a == 0 {
		return 0, 0
	}
	row := make([]float64, o.NumSlots())
	total, finite := 0.0, 0
	for _, src := range alive {
		o.FloodLatenciesInto(src, proc, row)
		for _, v := range row {
			if !math.IsInf(v, 1) {
				total += v
				finite++
			}
		}
	}
	return total / float64(a*a), a*a - finite
}

// alCheck asserts the tracker agrees with the exact reference within its
// own drift bound (plus a relative epsilon for the reference's different
// summation order).
func alCheck(t *testing.T, tag string, tr *ALTracker, o *overlay.Overlay, proc overlay.ProcDelayFunc) {
	t.Helper()
	ref, unreach := alExactRef(o, proc)
	got := tr.Value()
	tol := tr.Drift() + 1e-11*(1+math.Abs(ref))
	if diff := math.Abs(got - ref); diff > tol {
		t.Fatalf("%s: tracker AL %v vs exact %v (diff %v > tol %v)", tag, got, ref, diff, tol)
	}
	if gotU := tr.UnreachablePairs(); gotU != unreach {
		t.Fatalf("%s: tracker unreachable %d, want %d", tag, gotU, unreach)
	}
}

// alRandomOp applies one random topology mutation and describes it.
// nextHost supplies fresh distinct hosts for joins.
func alRandomOp(t *testing.T, o *overlay.Overlay, r *rng.Rand, nextHost *int, allowSwap bool) string {
	t.Helper()
	alive := o.AliveSlots()
	switch op := r.Intn(10); {
	case op < 4: // rewire: drop a random incident edge, add a random new one
		u := alive[r.Intn(len(alive))]
		rm := -1
		if nbrs := o.Neighbors(u); len(nbrs) > 0 {
			rm = nbrs[r.Intn(len(nbrs))]
			o.RemoveEdge(u, rm)
		}
		for tries := 0; tries < 20; tries++ {
			a, b := alive[r.Intn(len(alive))], alive[r.Intn(len(alive))]
			if a != b && !o.Logical.HasEdge(a, b) {
				if err := o.AddEdge(a, b); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("rewire -%d~%d +%d~%d", u, rm, a, b)
			}
		}
		return fmt.Sprintf("rewire -%d~%d (no add)", u, rm)
	case op < 5: // crash-stop (stale edges linger)
		if len(alive) > 6 {
			v := alive[r.Intn(len(alive))]
			if err := o.CrashSlot(v); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("crash %d", v)
		}
		return "crash skipped"
	case op < 6: // graceful leave
		if len(alive) > 6 {
			v := alive[r.Intn(len(alive))]
			if err := o.RemoveSlot(v); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("leave %d", v)
		}
		return "leave skipped"
	case op < 7: // join with two links
		slot, err := o.AddSlot(*nextHost)
		*nextHost += 7
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			nb := alive[r.Intn(len(alive))]
			if o.Alive(nb) && !o.Logical.HasEdge(slot, nb) {
				if err := o.AddEdge(slot, nb); err != nil {
					t.Fatal(err)
				}
			}
		}
		return fmt.Sprintf("join %d", slot)
	case op < 8: // evict a dead neighbor's stale link, if any
		u := alive[r.Intn(len(alive))]
		o.EvictDeadNeighbors(u)
		return fmt.Sprintf("evict %d", u)
	default: // PROP-G host swap (forces a tracker reflood) or no-op
		if allowSwap {
			u, v := alive[r.Intn(len(alive))], alive[r.Intn(len(alive))]
			if u != v {
				if err := o.SwapHosts(u, v); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("swap %d %d", u, v)
			}
		}
		return "noop"
	}
}

// TestALTrackerRandomOps is the incremental-vs-exact property test: random
// batches of rewires, crashes, leaves, joins, evictions and occasional
// swaps, with the tracker checked against a full reflood after every
// Update.
func TestALTrackerRandomOps(t *testing.T) {
	r := rng.New(71)
	for trial := 0; trial < 4; trial++ {
		n := 32 + 16*trial
		var proc overlay.ProcDelayFunc
		if trial%2 == 1 {
			proc = alTestProc
		}
		o := alRingOverlay(t, r, n, n)
		tr, err := NewALTracker(o, proc, ALTrackerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		alCheck(t, "seed", tr, o, proc)
		nextHost := 1_000_000
		for step := 0; step < 30; step++ {
			for b := 0; b <= r.Intn(3); b++ {
				alRandomOp(t, o, r, &nextHost, true)
			}
			tr.Update()
			alCheck(t, "step", tr, o, proc)
		}
		tr.Detach()
	}
}

// TestALTrackerForcedReflood: a negative drift budget refloods on every
// update, and the discharged value is bit-identical to AverageLatency on a
// connected overlay.
func TestALTrackerForcedReflood(t *testing.T) {
	r := rng.New(91)
	n := 24
	o := alRingOverlay(t, r, n, n/2)
	tr, err := NewALTracker(o, nil, ALTrackerOptions{DriftBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Detach()
	for step := 0; step < 5; step++ {
		// Chord-only rewires keep the ring, hence connectivity.
		for tries := 0; tries < 20; tries++ {
			a, b := r.Intn(n), r.Intn(n)
			if a != b && (a+1)%n != b && (b+1)%n != a && !o.Logical.HasEdge(a, b) {
				if err := o.AddEdge(a, b); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		st := tr.Update()
		if !st.FullReflood || st.Reason != "forced" {
			t.Fatalf("step %d: stats %+v, want forced full reflood", step, st)
		}
		want, err := AverageLatency(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Value(); got != want {
			t.Fatalf("step %d: forced-reflood value %v != exact %v", step, got, want)
		}
	}
}

// TestALTrackerSwapReflood: a PROP-G host swap degrades the update to a
// full reflood that still lands on the exact value.
func TestALTrackerSwapReflood(t *testing.T) {
	r := rng.New(97)
	o := alRingOverlay(t, r, 20, 10)
	tr, err := NewALTracker(o, nil, ALTrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Detach()
	if err := o.SwapHosts(3, 11); err != nil {
		t.Fatal(err)
	}
	st := tr.Update()
	if !st.FullReflood || st.Reason != "swap" {
		t.Fatalf("stats %+v, want swap-triggered reflood", st)
	}
	alCheck(t, "swap", tr, o, nil)
}

// TestALTrackerDriftDischarge: an absurdly tight positive budget trips the
// drift discharge as soon as any delta lands.
func TestALTrackerDriftDischarge(t *testing.T) {
	r := rng.New(101)
	n := 24
	o := alRingOverlay(t, r, n, n)
	tr, err := NewALTracker(o, nil, ALTrackerOptions{DriftBudget: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Detach()
	// Removing a ring edge reroutes many pairs: guaranteed nonzero deltas.
	o.RemoveEdge(0, 1)
	st := tr.Update()
	if !st.FullReflood || st.Reason != "drift" {
		t.Fatalf("stats %+v, want drift-triggered reflood", st)
	}
	alCheck(t, "drift", tr, o, nil)
}

// TestALTrackerNoopUpdate: an update with nothing to absorb is free and
// exact.
func TestALTrackerNoopUpdate(t *testing.T) {
	o := alRingOverlay(t, rng.New(103), 12, 6)
	tr, err := NewALTracker(o, nil, ALTrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Detach()
	st := tr.Update()
	if st.FullReflood || st.Events != 0 || st.Mutations != 0 {
		t.Fatalf("no-op update stats %+v", st)
	}
	alCheck(t, "noop", tr, o, nil)
}

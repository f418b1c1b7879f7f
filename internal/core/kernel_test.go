package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// referenceExchange is Exchange as it stood before the batch seam: Var is
// accumulated through one measure call per RTT, and after the first failed
// call measure is not called again (the rest count as 0). The batch kernel
// is held to it bit for bit.
func referenceExchange(o *overlay.Overlay, policy Policy, u, v int, path []int, m int, minVar float64,
	measure func(hostA, hostB int) (float64, bool), r *rng.Rand, sc *overlay.Scratch) (Outcome, float64, int) {
	failed := false
	hosts := func(a, b int) float64 {
		if failed {
			return 0
		}
		rtt, ok := measure(a, b)
		if !ok {
			failed = true
			return 0
		}
		return rtt
	}
	var variation float64
	var moved int
	var commit func() error
	switch policy {
	case PROPG:
		moved = o.Degree(u) + o.Degree(v)
		hu, hv := o.HostOf(u), o.HostOf(v)
		before, after := 0.0, 0.0
		for _, i := range o.Logical.Neighbors(u) {
			if !o.Alive(i) {
				continue
			}
			hi := o.HostOf(i)
			if i == v {
				hi = hu
			}
			before += hosts(hu, o.HostOf(i))
			after += hosts(hv, hi)
		}
		for _, i := range o.Logical.Neighbors(v) {
			if !o.Alive(i) {
				continue
			}
			hi := o.HostOf(i)
			if i == u {
				hi = hv
			}
			before += hosts(hv, o.HostOf(i))
			after += hosts(hu, hi)
		}
		variation = before - after
		commit = func() error { return o.SwapHosts(u, v) }
	case PROPO:
		give, take := SelectTrade(o, u, v, path, m, r, sc)
		if len(give) == 0 {
			return Rejected, 0, 0
		}
		moved = len(give) + len(take)
		slots := func(x, y int) float64 { return hosts(o.HostOf(x), o.HostOf(y)) }
		for _, a := range give {
			variation += slots(u, a) - slots(v, a)
		}
		for _, b := range take {
			variation += slots(v, b) - slots(u, b)
		}
		commit = func() error { return o.ExchangeNeighbors(u, v, give, take, path) }
	}
	switch {
	case failed:
		return Poisoned, variation, moved
	case variation <= minVar || commit() != nil:
		return Rejected, variation, moved
	}
	return Committed, variation, moved
}

// scriptedRTT is the k-th measurement of an evaluation: irrational, and a
// function of the call index, so a reordered list or fold changes Var's bits.
func scriptedRTT(k, a, b int) float64 {
	return math.Sqrt(lineLat(a, b)) * (1 + 0.1*math.Sin(float64(k)))
}

func overlayState(o *overlay.Overlay) string {
	hosts := make([]int, o.NumSlots())
	for s := range hosts {
		hosts[s] = o.HostOf(s)
	}
	return fmt.Sprint(hosts, o.Logical.Edges())
}

// TestExchangeMatchesPerCallReference holds the batch kernel to the per-call
// one over random overlays, with and without an unpurged corpse, under both
// policies, with the driver failing at every pair index in turn: same
// outcome, Var bits, moved, measurement sequence, draws from r and overlay.
func TestExchangeMatchesPerCallReference(t *testing.T) {
	for _, policy := range []Policy{PROPG, PROPO} {
		for _, corpse := range []bool{false, true} {
			committed, rejected := 0, 0
			for seed := uint64(1); seed <= 12; seed++ {
				base, r := scrambledLineOverlay(t, 40, seed)
				if corpse {
					// The busiest slot: most evaluations list around its stale edges.
					victim := 0
					for s := 0; s < base.NumSlots(); s++ {
						if base.Degree(s) > base.Degree(victim) {
							victim = s
						}
					}
					if err := base.CrashSlot(victim); err != nil {
						t.Fatal(err)
					}
				}
				u := base.AliveSlotAt(r.Intn(base.NumAlive()))
				nu := base.Neighbors(u)
				path, ok := base.RandomWalk(u, nu[r.Intn(len(nu))], 2, r, new(overlay.Scratch))
				if !ok {
					continue
				}
				path = slices.Clone(path)
				v := path[len(path)-1]
				minVar := 0.0
				if seed%3 == 0 {
					minVar = 1e9 // the Rejected branch
				}

				// failAt == pairs means no failure; the list length comes from the first pass.
				for failAt, pairs := 0, 0; failAt <= pairs; failAt++ {
					name := fmt.Sprintf("%v corpse=%v seed=%d failAt=%d", policy, corpse, seed, failAt)
					refO, refR, refSeq := base.Clone(), rng.New(seed), [][2]int(nil)
					wantOut, wantVar, wantMoved := referenceExchange(refO, policy, u, v, path, 3, minVar,
						func(a, b int) (float64, bool) {
							k := len(refSeq)
							refSeq = append(refSeq, [2]int{a, b})
							return scriptedRTT(k, a, b), k != failAt
						}, refR, new(overlay.Scratch))

					gotO, gotR, gotSeq := base.Clone(), rng.New(seed), [][2]int(nil)
					gotOut, gotVar, gotMoved := Exchange(gotO, policy, u, v, path, 3, minVar,
						func(list [][2]int, rtt []float64) int {
							if len(rtt) != len(list) {
								t.Fatalf("%s: %d RTT slots for %d pairs", name, len(rtt), len(list))
							}
							pairs = len(list)
							for k, pr := range list {
								if pr[0] < 0 || pr[1] < 0 {
									t.Fatalf("%s: pair %d names a released host: %v", name, k, pr)
								}
								gotSeq = append(gotSeq, pr)
								rtt[k] = scriptedRTT(k, pr[0], pr[1])
								if k == failAt {
									return k
								}
							}
							return len(list)
						}, gotR, new(overlay.Scratch))

					if gotOut != wantOut || math.Float64bits(gotVar) != math.Float64bits(wantVar) || gotMoved != wantMoved {
						t.Fatalf("%s: (%v, %x, %d), reference (%v, %x, %d)", name,
							gotOut, math.Float64bits(gotVar), gotMoved, wantOut, math.Float64bits(wantVar), wantMoved)
					}
					if !slices.Equal(gotSeq, refSeq) {
						t.Fatalf("%s: measured %v, reference %v", name, gotSeq, refSeq)
					}
					if gotR.Uint64() != refR.Uint64() {
						t.Fatalf("%s: r left in a different state", name)
					}
					if got, want := overlayState(gotO), overlayState(refO); got != want {
						t.Fatalf("%s: overlays differ:\n%s\n%s", name, got, want)
					}
					switch {
					case failAt < pairs && (gotOut != Poisoned || len(gotSeq) != failAt+1 || overlayState(gotO) != overlayState(base)):
						t.Fatalf("%s: outcome %v after %d measurements, want Poisoned after %d and no change",
							name, gotOut, len(gotSeq), failAt+1)
					case gotOut == Committed:
						committed++
					case gotOut == Rejected:
						rejected++
					}
				}
			}
			if committed == 0 || rejected == 0 {
				t.Fatalf("%v corpse=%v: %d committed, %d rejected — a branch went untested", policy, corpse, committed, rejected)
			}
		}
	}
}

// referenceMeasureRTT is the sequential driver's measurement as it stood
// before the batch seam: delivery (with its retries), then the truth read,
// then the noise draw, one pair at a time.
func referenceMeasureRTT(p *Protocol, lat func(a, b int) float64, now float64, a, b int) (float64, bool) {
	for attempt := 0; ; attempt++ {
		d := p.faults.Deliver(a, b, now)
		if d.Lost {
			p.Counters.Timeouts++
			if attempt >= p.cfg.MaxRetries {
				return 0, false
			}
			p.Counters.Retries++
			continue
		}
		if d.Dup {
			p.Counters.DupsDropped++
		}
		m := lat(a, b)
		if p.cfg.MeasurementNoise > 0 {
			if m *= 1 + p.cfg.MeasurementNoise*p.r.NormFloat64(); m < 0 {
				m = 0
			}
		}
		return m + d.DelayMS, true
	}
}

// TestMeasurePairsMatchesPerCallReference: reading every truth before the
// first delivery changes no RTT bit, no counter and neither random stream,
// with loss heavy enough that some batches exhaust a retry budget.
func TestMeasurePairsMatchesPerCallReference(t *testing.T) {
	for _, noise := range []float64{0, 0.3} {
		build := func() *Protocol {
			o, _ := scrambledLineOverlay(t, 40, 2)
			cfg := DefaultConfig(PROPG)
			cfg.MeasurementNoise = noise
			cfg.MaxRetries = 1
			p, err := New(o, cfg, rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			p.AttachFaults(mustInjector(t, faults.Config{Seed: 5, LossProb: 0.3, DupProb: 0.1, JitterMS: 5}))
			return p
		}
		ref, got := build(), build()
		r, sc := rng.New(3), new(overlay.Scratch)
		poisoned := 0
		for i := 0; i < 300; i++ {
			u := r.Intn(40)
			v := (u + 1 + r.Intn(39)) % 40
			got.O.SwapPairs(u, v, sc)
			want, wantN := make([]float64, len(sc.Pairs)), len(sc.Pairs)
			for k, pr := range sc.Pairs {
				rtt, ok := referenceMeasureRTT(ref, lineLat, float64(i), pr[0], pr[1])
				if !ok {
					wantN = k
					break
				}
				want[k] = rtt
			}
			n := got.measurePairs(float64(i), sc.Pairs, sc.RTT)
			if n != wantN {
				t.Fatalf("noise %v, batch %d: measured %d pairs, reference %d", noise, i, n, wantN)
			}
			for k := 0; k < n; k++ {
				if math.Float64bits(sc.RTT[k]) != math.Float64bits(want[k]) {
					t.Fatalf("noise %v, batch %d pair %d: RTT %v, reference %v", noise, i, k, sc.RTT[k], want[k])
				}
			}
			if n < len(sc.Pairs) {
				poisoned++
			}
		}
		if got.Counters != ref.Counters || got.r.Uint64() != ref.r.Uint64() {
			t.Fatalf("noise %v: counters %+v, reference %+v (or p.r diverged)", noise, got.Counters, ref.Counters)
		}
		if poisoned == 0 || poisoned == 300 {
			t.Fatalf("noise %v: %d of 300 batches poisoned — a branch went untested", noise, poisoned)
		}
	}
}

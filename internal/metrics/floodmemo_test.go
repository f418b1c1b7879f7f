package metrics_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gnutella"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestFloodMemoMeansDeterministicAcrossGOMAXPROCS pins the determinism contract of
// MeanLookupLatency with FloodEval's incremental evaluator behind it: over a
// 15-sample PROP-G run, one evaluator for the whole run, the means are
// bit-identical at GOMAXPROCS 1, 2 and 4, and each is the mean of plain
// FloodLatency on the same overlay state.
func TestFloodMemoMeansDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) []float64 {
		runtime.GOMAXPROCS(procs)
		r := rng.New(11)
		lat := func(a, b int) float64 { return math.Abs(float64(a - b)) }
		o, err := gnutella.Build(r.Perm(2000)[:200], gnutella.DefaultConfig(), lat, r)
		if err != nil {
			t.Fatal(err)
		}
		lookups, err := workload.Uniform(o.AliveSlots(), 300, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.New(o, core.DefaultConfig(core.PROPG), r.Split())
		if err != nil {
			t.Fatal(err)
		}
		e := event.New()
		p.Start(e)
		eval := metrics.FloodEval(o, nil)
		plain := func(l workload.Lookup) float64 { return o.FloodLatency(l.Src, l.Dst, nil) }
		var means []float64
		for k := 0; k < 15; k++ {
			e.RunUntil(event.Time(k * 2 * 60000))
			mean, failed := metrics.MeanLookupLatency(lookups, eval)
			want, wantFailed := metrics.MeanLookupLatency(lookups, plain)
			if math.Float64bits(mean) != math.Float64bits(want) || failed != wantFailed {
				t.Fatalf("GOMAXPROCS %d, sample %d: mean %v (%d failed), FloodLatency's %v (%d failed)", procs, k, mean, failed, want, wantFailed)
			}
			means = append(means, mean)
		}
		if p.Counters.Exchanges == 0 {
			t.Fatal("PROP-G made no exchange: every sample read one overlay state")
		}
		return means
	}
	want := run(1)
	for _, procs := range []int{2, 4} {
		for k, mean := range run(procs) {
			if math.Float64bits(mean) != math.Float64bits(want[k]) {
				t.Fatalf("sample %d: mean %v at GOMAXPROCS %d, %v at 1", k, mean, procs, want[k])
			}
		}
	}
}

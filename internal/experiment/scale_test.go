package experiment

import (
	"bytes"
	"testing"
)

// scaleTestOpt keeps fig5a-scale tests on the smallest rung with a short
// horizon: one 4096-peer world, no exact reference.
func scaleTestOpt(seed uint64) Options {
	return Options{Seed: seed, Trials: 1, Scale: 0.5, ScaleMaxN: scaleMinPeers}
}

// TestFig5aScaleLadder pins the rung arithmetic: defaults reach 10^6, the
// cap truncates and becomes the top rung, Scale shrinks the cap, and the
// floor is one stub layer.
func TestFig5aScaleLadder(t *testing.T) {
	cases := []struct {
		opt  Options
		want []int
	}{
		{Options{Scale: 1}, []int{4096, 32768, 262144, 1000000}},
		{Options{Scale: 1, ScaleMaxN: 100000}, []int{4096, 32768, 100000}},
		{Options{Scale: 1, ScaleMaxN: 4096}, []int{4096}},
		{Options{Scale: 1, ScaleMaxN: 40000}, []int{4096, 32768, 40000}},
		{Options{Scale: 0.1}, []int{4096, 32768, 100000}},
		{Options{Scale: 0.001}, []int{4096}},
	}
	for _, c := range cases {
		got := scaleRungs(c.opt.withDefaults())
		if len(got) != len(c.want) {
			t.Errorf("rungs(%+v) = %v, want %v", c.opt, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("rungs(%+v) = %v, want %v", c.opt, got, c.want)
				break
			}
		}
	}
}

// TestFig5aScaleSmoke checks the golden run's shape: one series per rung,
// the smallest at n=4096, each a decreasing estimated-AL trend.
func TestFig5aScaleSmoke(t *testing.T) {
	res := golden(t, "fig5a-scale").res
	if len(res.Series) != len(scaleRungs(goldenOpt)) || res.Series[0].Label != "n=4096" {
		t.Fatalf("series %+v, want one per rung from n=4096", res.Series)
	}
	for _, s := range res.Series {
		if s.Len() < 3 {
			t.Errorf("%s: %d points", s.Label, s.Len())
		} else if last := s.Final(); last >= s.Y[0] {
			t.Errorf("%s: estimated AL did not improve: %.1f -> %.1f ms", s.Label, s.Y[0], last)
		}
	}
}

// TestFig5aScaleStreamDeterministic: the metrics stream of a sharded run is
// the same across different shard counts — the cross-layer restatement of
// the internal/shard invariance test — and changes with the seed. (The
// golden pass pins the same-seed bytes.)
func TestFig5aScaleStreamDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded stream sweep in -short mode")
	}
	base := metricsStreamOf(t, "fig5a-scale", scaleTestOpt(9))
	for _, shards := range []int{1, 4} {
		opt := scaleTestOpt(9)
		opt.Shards = shards
		if got := metricsStreamOf(t, "fig5a-scale", opt); !bytes.Equal(got, base) {
			t.Fatalf("shards=%d stream differs from default:\n%s", shards, firstDiffLine(got, base))
		}
	}
	other := metricsStreamOf(t, "fig5a-scale", scaleTestOpt(10))
	if bytes.Equal(base, other) {
		t.Fatal("different seeds emitted identical streams")
	}
	for _, name := range []string{`"n=4096/al_est_ms"`, `"n=4096/al_stderr_ms"`, `"n=4096/exchanges"`, `"n=4096/messages"`} {
		if !bytes.Contains(base, []byte(name)) {
			t.Errorf("stream missing series %s", name)
		}
	}
	if bytes.Contains(base, []byte("walltime_s")) || bytes.Contains(base, []byte("heap_alloc_mb")) {
		t.Error("wall-gated series leaked into a deterministic stream")
	}
}

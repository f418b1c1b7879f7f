package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// figRScaleTestOpt keeps figR-scale tests on the smallest rung with
// collapsed sweeps: three sharded runs (fault-free, one loss point, one
// crash point) over a single 4096-peer world.
func figRScaleTestOpt(seed uint64) Options {
	return Options{
		Seed: seed, Trials: 1, Scale: 0.5, ScaleMaxN: scaleMinPeers,
		FaultLoss: 0.05, FaultCrash: 0.10,
	}
}

// TestFigRScaleSmoke checks the golden run's shape: a loss and a crash
// series per rung, each anchored at the rung's shared fault-free point, the
// full sweeps on the smallest rung and only their endpoints above it, plus
// the per-point fault tallies in the notes.
func TestFigRScaleSmoke(t *testing.T) {
	res := golden(t, "figR-scale").res
	rungs := scaleRungs(goldenOpt)
	if len(res.Series) != 2*len(rungs) {
		t.Fatalf("%d series, want loss + crash for each of %d rungs", len(res.Series), len(rungs))
	}
	if res.Series[0].Label != "n=4096 loss" || res.Series[1].Label != "n=4096 crash" {
		t.Fatalf("series labels %q, %q", res.Series[0].Label, res.Series[1].Label)
	}
	for i := range rungs {
		loss, crash := res.Series[2*i], res.Series[2*i+1]
		nl, nc := 2, 2
		if i == 0 {
			nl, nc = len(figRLossGrid), len(figRCrashGrid)
		}
		if loss.Len() != nl || crash.Len() != nc {
			t.Errorf("%s/%s: sweep sizes %d/%d, want %d/%d", loss.Label, crash.Label, loss.Len(), crash.Len(), nl, nc)
		}
		if loss.X[0] != 0 || crash.X[0] != 0 || loss.Y[0] != crash.Y[0] {
			t.Errorf("%s: sweeps not anchored at the shared fault-free point: loss(%v)=%v crash(%v)=%v",
				loss.Label, loss.X[0], loss.Y[0], crash.X[0], crash.Y[0])
		}
	}
	var tallies bool
	for _, n := range res.Notes {
		if strings.Contains(n, "crash20: ") && strings.Contains(n, "crashes") {
			tallies = true
		}
	}
	if !tallies {
		t.Errorf("notes missing per-point fault tallies: %q", res.Notes)
	}
}

// TestFigRScaleSweepCollapse: the -loss/-crash overrides collapse each
// sweep to {0, value}, exactly like figRa/figRb.
func TestFigRScaleSweepCollapse(t *testing.T) {
	res, err := Run("figR-scale", figRScaleTestOpt(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Len() != 2 {
			t.Errorf("series %q has %d points, want 2 (collapsed sweep)", s.Label, s.Len())
		}
	}
	if got := res.Series[0].X[1]; got != 5 {
		t.Errorf("collapsed loss sweep at %v%%, want 5%%", got)
	}
	if got := res.Series[1].X[1]; got != 10 {
		t.Errorf("collapsed crash sweep at %v%%, want 10%%", got)
	}
}

// TestFigRScaleStreamShardInvariance is the experiment-layer restatement of
// the tentpole contract on the full-size world: with loss, duplication,
// jitter, and crash-stop churn enabled, the metrics stream is byte-identical
// for 1 and 16 shards (16 = one engine per ScaleTS transit domain, the
// widest admissible split).
func TestFigRScaleStreamShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded stream sweep in -short mode")
	}
	base := metricsStreamOf(t, "figR-scale", figRScaleTestOpt(9))
	for _, shards := range []int{1, 16} {
		opt := figRScaleTestOpt(9)
		opt.Shards = shards
		if got := metricsStreamOf(t, "figR-scale", opt); !bytes.Equal(got, base) {
			t.Fatalf("shards=%d faulty stream differs from default:\n%s", shards, firstDiffLine(got, base))
		}
	}
	if other := metricsStreamOf(t, "figR-scale", figRScaleTestOpt(10)); bytes.Equal(base, other) {
		t.Fatal("different seeds emitted identical faulty streams")
	}
	for _, name := range []string{`"n=4096/base/al_est_ms"`, `"n=4096/loss5/crashed"`, `"n=4096/crash10/evictions"`} {
		if !bytes.Contains(base, []byte(name)) {
			t.Errorf("stream missing series %s", name)
		}
	}
	if bytes.Contains(base, []byte(`"n=4096/base/crashed"`)) {
		t.Error("fault-free point grew a churn series")
	}
}

// TestFaultFlagRejectsBadValues: a negative or non-finite fault override, or
// a non-finite scale, is an error before any trial runs — NaN used to run a
// whole figRa sweep and then panic merging it, -0.5 silently ran the
// default grid, and -scale NaN ran every size at a NaN scale.
func TestFaultFlagRejectsBadValues(t *testing.T) {
	reg := obs.New(obs.NewManifest("figRa", 1, 1, 0.1))
	for _, c := range []struct {
		id  string
		opt Options
		fla string
	}{
		{"figRa", Options{FaultLoss: math.NaN(), Metrics: reg}, "-loss"},
		{"figRb", Options{FaultCrash: -0.5, Metrics: reg}, "-crash"},
		{"figRc", Options{FaultPartitionMS: math.Inf(1), Metrics: reg}, "-partition"},
		{"overhead", Options{Scale: math.NaN(), Metrics: reg}, "-scale"},
	} {
		if _, err := Run(c.id, c.opt); err == nil || !strings.Contains(err.Error(), c.fla) {
			t.Errorf("%s %+v: error %v, want one naming %s", c.id, c.opt, err, c.fla)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
		t.Errorf("rejected overrides still recorded %d stream lines past the manifest", n-1)
	}
}

// TestFaultFlagRejection pins the bugfix: an optional field an experiment
// would silently ignore — a fault override, the AL mode, the ladder knobs,
// the auditor — is an error before any trial runs, naming the flag and the
// experiments that do consume it; an unknown AL mode is an error for every
// experiment. The consuming experiments accept their own overrides.
func TestFaultFlagRejection(t *testing.T) {
	for _, c := range []struct {
		id   string
		opt  Options
		flag string // the rejected flag(s), as the error names them
		user string // an experiment the error must name as consuming them
	}{
		{"fig5b", Options{FaultLoss: 0.05}, "-loss", "figR-scale"},
		{"fig5a", Options{FaultCrash: 0.1}, "-crash", "figR-scale"},
		{"churn", Options{FaultPartitionMS: 60000}, "-partition", "figR-scale"},
		{"figRa", Options{FaultCrash: 0.1}, "-crash", "figR-scale"},
		{"figRb", Options{FaultLoss: 0.05}, "-loss", "figR-scale"},
		{"figRc", Options{FaultLoss: 0.05, FaultCrash: 0.1}, "-loss/-crash", "figR-scale"},
		{"overhead", Options{ALMode: ALModeExact, Shards: 3, ScaleMaxN: 5}, "-al-mode/-scale-n/-shards", "fig5a-scale"},
		{"fig6a", Options{ALMode: ALModeSketch}, "-al-mode", "churn"},
		{"figRa", Options{ScaleMaxN: 5}, "-scale-n", "fig5a-scale"},
		{"fig5a", Options{Shards: 4}, "-shards", "figR-scale"},
		{"churn", Options{Audit: true}, "Options.Audit", "fig6c"},
		{"fig5a-scale", Options{ALMode: ALModeExact}, "-al-mode", "fig5c"},
		{"overhead", Options{ALMode: "nope", Shards: 3}, "unknown AL mode", "sketch"},
	} {
		_, err := Run(c.id, c.opt)
		if err == nil {
			t.Errorf("%s silently accepted an option it does not consume (%+v)", c.id, c.opt)
			continue
		}
		if !strings.Contains(err.Error(), c.flag) || !strings.Contains(err.Error(), c.user) {
			t.Errorf("%s: error %q does not name %s and %s", c.id, err, c.flag, c.user)
		}
	}
	// fig5a-scale consumes all three: the same overrides must run clean and
	// put the churn series on the stream.
	opt := Options{
		Seed: 3, Trials: 1, Scale: 0.5, ScaleMaxN: scaleMinPeers,
		FaultLoss: 0.05, FaultCrash: 0.10, FaultPartitionMS: 60000,
	}
	stream := metricsStreamOf(t, "fig5a-scale", opt)
	if !bytes.Contains(stream, []byte(`"n=4096/crashed"`)) {
		t.Error("fig5a-scale with fault overrides missing the churn series")
	}
}

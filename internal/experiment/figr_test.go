package experiment

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// runFigRWithMetrics runs one figR experiment with an attached registry and
// returns the rendered table plus the full JSONL metrics stream.
func runFigRWithMetrics(t *testing.T, id string, opt Options) (string, []byte) {
	t.Helper()
	reg := obs.New(obs.NewManifest(id, opt.Seed, opt.Trials, opt.Scale))
	opt.Metrics = reg
	res, err := Run(id, opt)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var table strings.Builder
	res.Render(&table)
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatalf("%s: WriteJSONL: %v", id, err)
	}
	return table.String(), buf.Bytes()
}

// TestFigRMetricsByteDeterminism is the fault-schedule determinism
// regression on the override path (the golden pass pins the default
// sweeps): the figR metrics streams — which embed every retry, timeout,
// and injector tally the fault schedule produced — must be byte-identical
// across runs with the same seed, and must change with the seed.
func TestFigRMetricsByteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("figR determinism sweep in -short mode")
	}
	// Collapse a sweep to two points to keep the regression fast: figR's
	// loss sweep under the figRa case, its crash sweep under the figRb case,
	// each with only its own override set.
	for _, c := range []struct {
		name, id string
		override Options
	}{
		{"figRa", "figR", Options{FaultLoss: 0.05}},
		{"figRb", "figR", Options{FaultCrash: 0.10}},
		{"figRc", "figRc", Options{FaultPartitionMS: 300000}},
	} {
		id := c.id
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			opt := Options{Seed: 5, Trials: 2, Scale: 0.1}
			opt.FaultLoss = c.override.FaultLoss
			opt.FaultCrash = c.override.FaultCrash
			opt.FaultPartitionMS = c.override.FaultPartitionMS
			table1, jsonl1 := runFigRWithMetrics(t, id, opt)
			table2, jsonl2 := runFigRWithMetrics(t, id, opt)
			if table1 != table2 {
				t.Fatalf("same seed rendered different tables:\n--- first ---\n%s\n--- second ---\n%s", table1, table2)
			}
			if !bytes.Equal(jsonl1, jsonl2) {
				t.Fatalf("same seed produced different metrics streams (%d vs %d bytes)", len(jsonl1), len(jsonl2))
			}
			other := opt
			other.Seed = 6
			_, jsonl3 := runFigRWithMetrics(t, id, other)
			if bytes.Equal(jsonl1, jsonl3) {
				t.Errorf("seeds 5 and 6 produced identical metrics streams — the fault schedule is not seeded")
			}
		})
	}
}

// TestFigRaConvergesUnderLoss pins the acceptance property on figR's
// golden run: at 5% message loss both PROP policies still end well below
// the unoptimized overlay.
func TestFigRaConvergesUnderLoss(t *testing.T) {
	g := golden(t, "figR")
	unopt := g.series(t, "loss: unoptimized").YAt(5)
	for _, label := range []string{"loss: PROP-G", "loss: PROP-O (m=2)"} {
		if got := g.series(t, label).YAt(5); !(got < unopt) {
			t.Errorf("%s at 5%% loss: stretch %v did not improve on unoptimized %v", label, got, unopt)
		}
	}
}

// TestFigRbRepairsCrashes pins the crash-stop acceptance property on
// figR's golden run: with 10% of the peers crashing, the repair rounds
// actually run (corpses repaired) and the per-round audit — which would
// have failed the run — stayed green.
func TestFigRbRepairsCrashes(t *testing.T) {
	if got := golden(t, "figR").series(t, "crash: corpses repaired").YAt(10); got <= 0 {
		t.Errorf("corpses repaired at crash=10%%: %v, want > 0", got)
	}
}

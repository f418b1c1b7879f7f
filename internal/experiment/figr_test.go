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
	// Collapse each sweep to two points to keep the regression fast; each
	// experiment gets only the override it consumes (Run rejects the rest).
	overrides := map[string]Options{
		"figRa": {FaultLoss: 0.05},
		"figRb": {FaultCrash: 0.10},
		"figRc": {FaultPartitionMS: 300000},
	}
	for _, id := range []string{"figRa", "figRb", "figRc"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			opt := Options{Seed: 5, Trials: 2, Scale: 0.1}
			opt.FaultLoss = overrides[id].FaultLoss
			opt.FaultCrash = overrides[id].FaultCrash
			opt.FaultPartitionMS = overrides[id].FaultPartitionMS
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

// TestFigRaConvergesUnderLoss pins the acceptance property on the golden
// run: at 5% message loss both PROP policies still end well below the
// unoptimized overlay.
func TestFigRaConvergesUnderLoss(t *testing.T) {
	g := golden(t, "figRa")
	unopt := g.series(t, "unoptimized").YAt(5)
	for _, label := range []string{"PROP-G", "PROP-O (m=2)"} {
		if got := g.series(t, label).YAt(5); !(got < unopt) {
			t.Errorf("%s at 5%% loss: stretch %v did not improve on unoptimized %v", label, got, unopt)
		}
	}
}

// TestFigRbRepairsCrashes pins the crash-stop acceptance property on the
// golden run: with 10% of the peers crashing, the repair rounds actually
// run (corpses repaired) and the per-round audit — which would have failed
// the run — stayed green.
func TestFigRbRepairsCrashes(t *testing.T) {
	if got := golden(t, "figRb").series(t, "corpses repaired").YAt(10); got <= 0 {
		t.Errorf("corpses repaired at crash=10%%: %v, want > 0", got)
	}
}

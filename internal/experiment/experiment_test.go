package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestRegistry(t *testing.T) {
	ids := IDs()
	want := []string{
		"chordchurn", "churn", "combo", "fig5a", "fig5a-scale", "fig5b", "fig5c", "fig6a", "fig6b",
		"fig6c", "fig7", "figR-scale", "figRa", "figRb", "figRc", "inflight", "kademlia", "minvar",
		"noise", "overhead", "pastry", "replication", "satmatch", "traffic", "warmup",
	}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	for _, id := range ids {
		if Describe(id) == "" {
			t.Errorf("no description for %s", id)
		}
	}
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	d := Options{}.withDefaults()
	if d.Seed != 1 || d.Trials != 3 || d.Scale != 1 {
		t.Fatalf("defaults = %+v", d)
	}
	kept := Options{Seed: 9, Trials: 2, Scale: 0.5}.withDefaults()
	if kept.Seed != 9 || kept.Trials != 2 || kept.Scale != 0.5 {
		t.Fatalf("explicit options clobbered: %+v", kept)
	}
	if bad := (Options{Scale: 7}).withDefaults(); bad.Scale != 1 {
		t.Fatalf("out-of-range scale not clamped: %v", bad.Scale)
	}
}

func TestScaled(t *testing.T) {
	if scaled(1000, 0.5, 50) != 500 {
		t.Fatal("scaled wrong")
	}
	if scaled(1000, 0.01, 50) != 50 {
		t.Fatal("floor not applied")
	}
}

func TestTrialSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		s := trialSeed(1, i)
		if seen[s] {
			t.Fatalf("duplicate trial seed at %d", i)
		}
		seen[s] = true
	}
}

func TestRender(t *testing.T) {
	res := &Result{
		ID: "demo", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []stats.Series{
			{Label: "a", X: []float64{0, 1}, Y: []float64{1, 2}},
			{Label: "b", X: []float64{0, 2}, Y: []float64{3, 4}},
		},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a", "b", "hello", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	empty := &Result{ID: "e", Title: "e"}
	buf.Reset()
	empty.Render(&buf)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty render missing placeholder")
	}
}

func TestMergeTrialsAverages(t *testing.T) {
	perTrial := [][]stats.Series{
		{{Label: "s", X: []float64{0}, Y: []float64{2}}},
		{{Label: "s", X: []float64{0}, Y: []float64{4}}},
	}
	merged := mergeTrials(perTrial)
	if len(merged) != 1 || math.Abs(merged[0].Y[0]-3) > 1e-12 {
		t.Fatalf("merge = %+v", merged)
	}
	if mergeTrials(nil) != nil {
		t.Fatal("empty merge should be nil")
	}
}

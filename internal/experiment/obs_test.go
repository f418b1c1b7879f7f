package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// metricsStreamOf runs one experiment with a fresh registry and returns the
// JSONL metrics stream it emits.
func metricsStreamOf(t *testing.T, id string, opt Options) []byte {
	t.Helper()
	reg := obs.New(obs.NewManifest(id, opt.Seed, opt.Trials, opt.Scale))
	opt.Metrics = reg
	if _, err := Run(id, opt); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatalf("%s: WriteJSONL: %v", id, err)
	}
	return buf.Bytes()
}

// TestMetricsStreamDeterministic is the observability half of the
// determinism regression: the full JSONL metrics stream — counters
// (including the oracle cache counters), gauges, histograms, series
// samples, and sim-clock spans — must be a pure function of the seed.
// Trials run in parallel goroutines and the lookup evaluators fan out
// across cores, so this guards the whole instrumentation path against
// scheduling- and map-iteration-order leaks (DESIGN.md §8).
func TestMetricsStreamDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("metrics determinism sweep in -short mode")
	}
	for _, id := range []string{"fig5a", "fig6a", "fig7", "churn"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			opt := Options{Seed: 5, Trials: 2, Scale: 0.1}
			first := metricsStreamOf(t, id, opt)
			second := metricsStreamOf(t, id, opt)
			if !bytes.Equal(first, second) {
				t.Fatalf("same options emitted different metrics streams:\n%s", firstDiffLine(first, second))
			}
			if !bytes.Contains(first, []byte(`"kind":"sample"`)) {
				t.Errorf("%s stream has no series samples — instrumentation not wired", id)
			}
			if !bytes.Contains(first, []byte(`"kind":"span"`)) {
				t.Errorf("%s stream has no phase spans — instrumentation not wired", id)
			}
			checkGolden(t, "stream "+id, first)
		})
	}
}

// TestMetricsStreamSchema spot-checks the JSONL schema documented in
// EXPERIMENTS.md: every line is a JSON object with a known kind, the first
// line is the manifest, and no wall-clock field leaks into a stream whose
// registry never opted into wall time.
func TestMetricsStreamSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full instrumented experiment")
	}
	stream := metricsStreamOf(t, "fig5a", Options{Seed: 1, Trials: 1, Scale: 0.1})
	lines := strings.Split(strings.TrimRight(string(stream), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously short stream: %d lines", len(lines))
	}
	known := map[string]bool{"manifest": true, "counter": true, "gauge": true, "histogram": true, "sample": true, "span": true}
	for i, line := range lines {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v", i+1, err)
		}
		kind, _ := rec["kind"].(string)
		if !known[kind] {
			t.Fatalf("line %d has unknown kind %q", i+1, kind)
		}
		if i == 0 && kind != "manifest" {
			t.Fatalf("first record kind = %q, want manifest", kind)
		}
		if _, ok := rec["wall_ms"]; ok {
			t.Fatalf("line %d leaks wall_ms without EnableWallClock", i+1)
		}
		if _, ok := rec["unix_time"]; ok {
			t.Fatalf("line %d leaks unix_time without EnableWallClock", i+1)
		}
	}
	var man obs.Manifest
	if err := json.Unmarshal([]byte(lines[0]), &man); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if man.Schema != obs.SchemaVersion {
		t.Errorf("manifest schema = %q, want %q", man.Schema, obs.SchemaVersion)
	}
	if man.Experiment != "fig5a" || man.Seed != 1 {
		t.Errorf("manifest identity = %q/%d, want fig5a/1", man.Experiment, man.Seed)
	}
}

// firstDiffLine locates the first differing line of two streams for a
// readable failure message.
func firstDiffLine(a, b []byte) string {
	la := strings.Split(string(a), "\n")
	lb := strings.Split(string(b), "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  first:  %s\n  second: %s", i+1, la[i], lb[i])
		}
	}
	return "streams differ in length"
}

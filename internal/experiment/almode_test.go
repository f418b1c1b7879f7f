package experiment

import (
	"encoding/json"
	"strings"
	"testing"
)

// alSeriesOf extracts the (t_ms, value) points of one trial-0 series from a
// JSONL metrics stream.
func alSeriesOf(t *testing.T, stream []byte, name string) (ts, vs []float64) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(string(stream), "\n"), "\n") {
		var rec struct {
			Kind  string  `json:"kind"`
			Trial int     `json:"trial"`
			Name  string  `json:"name"`
			TMS   float64 `json:"t_ms"`
			Value float64 `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		if rec.Kind == "sample" && rec.Trial == 0 && rec.Name == name {
			ts = append(ts, rec.TMS)
			vs = append(vs, rec.Value)
		}
	}
	return ts, vs
}

// TestALModeUnknown: a bogus mode — including the retired "sampled" and
// "incremental" — fails the run with an error naming the accepted modes
// instead of being silently ignored.
func TestALModeUnknown(t *testing.T) {
	for _, mode := range []string{"bogus", "sampled", "incremental"} {
		_, err := Run("churn", Options{Seed: 1, Trials: 1, Scale: 0.1, ALMode: mode})
		if err == nil {
			t.Fatalf("unknown AL mode %q accepted", mode)
		}
		for _, want := range []string{ALModeExact, ALModeSketch} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name mode %q", err, want)
			}
		}
	}
}

// TestALModeChurnStreams checks the churn experiment's AL series in each
// mode: (a) the exact and sketch modes emit al_ms at the same sample
// points, (b) the sketch stays in the exact value's ballpark, and (c) the
// default (off) mode emits no AL series at all. The exact stream's bytes
// are pinned by its golden line.
func TestALModeChurnStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full instrumented churn trials")
	}
	if ts, _ := alSeriesOf(t, golden(t, "churn").stream, "churn/al_ms"); len(ts) != 0 {
		t.Fatalf("AL mode off emitted %d al_ms samples", len(ts))
	}
	opt := goldenOpt
	opt.ALMode = ALModeSketch
	exactT, exactV := alSeriesOf(t, golden(t, "churn al-mode=exact").stream, "churn/al_ms")
	skT, skV := alSeriesOf(t, metricsStreamOf(t, "churn", opt), "churn/al_ms")
	if len(exactT) == 0 || len(skT) != len(exactT) {
		t.Fatalf("al_ms series: exact %d points, sketch %d", len(exactT), len(skT))
	}
	for i := range exactT {
		if skT[i] != exactT[i] {
			t.Fatalf("sample %d at t=%v (sketch) vs t=%v (exact)", i, skT[i], exactT[i])
		}
		// The sketch estimate is noisy but must stay in the right ballpark.
		if skV[i] <= 0 || skV[i] > 10*exactV[i] {
			t.Fatalf("t=%v: sketch AL %v implausible (exact %v)", skT[i], skV[i], exactV[i])
		}
	}
}

// TestALModeFig5Stream: the fig5 harness emits the per-variant al_ms series
// and the result notes mention the mode.
func TestALModeFig5Stream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full instrumented fig5 panel")
	}
	g := golden(t, "fig5c al-mode=exact")
	found := false
	for _, n := range g.res.Notes {
		if strings.Contains(n, "al-mode=exact") {
			found = true
		}
	}
	if !found {
		t.Fatalf("notes missing al-mode marker: %v", g.res.Notes)
	}
	for _, name := range []string{"ts-large/al_ms", "ts-small/al_ms"} {
		if ts, _ := alSeriesOf(t, g.stream, name); len(ts) == 0 {
			t.Fatalf("fig5c emitted no %s samples", name)
		}
	}
}

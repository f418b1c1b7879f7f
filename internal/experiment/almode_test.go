package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
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

// TestALModeUnknown: a bogus mode — including the retired "sampled" — fails
// the run with an error naming the accepted modes instead of being silently
// ignored.
func TestALModeUnknown(t *testing.T) {
	for _, mode := range []string{"bogus", "sampled"} {
		_, err := Run("churn", Options{Seed: 1, Trials: 1, Scale: 0.1, ALMode: mode})
		if err == nil {
			t.Fatalf("unknown AL mode %q accepted", mode)
		}
		for _, want := range []string{ALModeExact, ALModeIncremental, ALModeSketch} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name mode %q", err, want)
			}
		}
	}
}

// TestALModeChurnStreams runs the churn experiment once per AL mode and
// checks that (a) every mode emits the al_ms series, (b) the incremental
// tracker agrees with the exact per-sample reflood at every sample point,
// and (c) the default (off) mode emits no AL series at all.
func TestALModeChurnStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full instrumented churn trials")
	}
	opt := Options{Seed: 3, Trials: 1, Scale: 0.1}
	off := metricsStreamOf(t, "churn", opt)
	if ts, _ := alSeriesOf(t, off, "churn/al_ms"); len(ts) != 0 {
		t.Fatalf("AL mode off emitted %d al_ms samples", len(ts))
	}

	streams := map[string][]byte{}
	for _, mode := range []string{ALModeExact, ALModeIncremental, ALModeSketch} {
		o := opt
		o.ALMode = mode
		streams[mode] = metricsStreamOf(t, "churn", o)
	}
	var exactT, exactV, incT, incV []float64
	exactT, exactV = alSeriesOf(t, streams[ALModeExact], "churn/al_ms")
	incT, incV = alSeriesOf(t, streams[ALModeIncremental], "churn/al_ms")
	skT, skV := alSeriesOf(t, streams[ALModeSketch], "churn/al_ms")
	if len(exactT) == 0 || len(incT) == 0 || len(skT) == 0 {
		t.Fatalf("missing al_ms series: exact=%d incremental=%d sketch=%d points",
			len(exactT), len(incT), len(skT))
	}
	if len(incT) != len(exactT) {
		t.Fatalf("incremental emitted %d points, exact %d", len(incT), len(exactT))
	}
	for i := range exactT {
		if incT[i] != exactT[i] {
			t.Fatalf("sample %d at t=%v (incremental) vs t=%v (exact)", i, incT[i], exactT[i])
		}
		// The tracker guarantees agreement within its drift budget (default
		// 1e-6 ms) plus a whisker for the reference's own rounding.
		if diff := math.Abs(incV[i] - exactV[i]); diff > 1e-6+1e-9*math.Abs(exactV[i]) {
			t.Fatalf("t=%v: incremental AL %v vs exact %v (diff %v)", exactT[i], incV[i], exactV[i], diff)
		}
	}
	// The sketch estimate is noisy but must stay in the right ballpark.
	for i := range skT {
		if skV[i] <= 0 || skV[i] > 10*exactV[0] {
			t.Fatalf("t=%v: sketch AL %v implausible (exact starts at %v)", skT[i], skV[i], exactV[0])
		}
	}
}

// TestALModeFig5Stream: the fig5 harness emits the per-variant al_ms series
// and the result notes mention the mode.
func TestALModeFig5Stream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full instrumented fig5 panel")
	}
	reg := obs.New(obs.NewManifest("fig5c", 2, 1, 0.1))
	res, err := Run("fig5c", Options{Seed: 2, Trials: 1, Scale: 0.1, ALMode: ALModeIncremental, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "al-mode=incremental") {
			found = true
		}
	}
	if !found {
		t.Fatalf("notes missing al-mode marker: %v", res.Notes)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	if ts, _ := alSeriesOf(t, stream, "ts-large/al_ms"); len(ts) == 0 {
		t.Fatal("fig5c emitted no ts-large/al_ms samples")
	}
	if ts, _ := alSeriesOf(t, stream, "ts-small/al_ms"); len(ts) == 0 {
		t.Fatal("fig5c emitted no ts-small/al_ms samples")
	}
}

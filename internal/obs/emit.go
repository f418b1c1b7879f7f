package obs

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The JSONL stream is one record per line. Field order is fixed by the
// struct layouts below; trials are emitted in index order and instruments
// in name order, so the stream is byte-deterministic (see the package
// comment for the full contract). EXPERIMENTS.md ("Metrics streams")
// documents the schema for consumers.

type manifestRecord struct {
	Kind string `json:"kind"`
	Manifest
}

type counterRecord struct {
	Kind  string `json:"kind"`
	Trial int    `json:"trial"`
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

type histogramRecord struct {
	Kind   string    `json:"kind"`
	Trial  int       `json:"trial"`
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

type sampleRecord struct {
	Kind  string  `json:"kind"`
	Trial int     `json:"trial"`
	Name  string  `json:"name"`
	TMS   float64 `json:"t_ms"`
	Value float64 `json:"value"`
}

type spanRecord struct {
	Kind       string  `json:"kind"`
	Trial      int     `json:"trial"`
	Name       string  `json:"name"`
	Seq        int     `json:"seq"`
	SimStartMS float64 `json:"sim_start_ms"`
	SimEndMS   float64 `json:"sim_end_ms"`
	WallMS     float64 `json:"wall_ms,omitempty"`
}

// WriteJSONL emits the registry as one JSON record per line: the manifest,
// then per trial (in index order) counters, histograms, series samples,
// and spans. Nil-safe: a nil registry writes nothing.
func (r *Registry) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline JSONL needs
	if err := enc.Encode(manifestRecord{Kind: "manifest", Manifest: r.manifest}); err != nil {
		return err
	}
	for _, t := range r.sortedTrials() {
		t.mu.Lock()
		for _, c := range t.sortedCounters() {
			if err := enc.Encode(counterRecord{Kind: "counter", Trial: t.index, Name: c.name, Value: c.Value()}); err != nil {
				t.mu.Unlock()
				return err
			}
		}
		for _, h := range t.sortedHistograms() {
			bounds, counts, n, sum := h.Snapshot()
			if err := enc.Encode(histogramRecord{
				Kind: "histogram", Trial: t.index, Name: h.name,
				Bounds: bounds, Counts: counts, Count: n, Sum: sum,
			}); err != nil {
				t.mu.Unlock()
				return err
			}
		}
		for _, s := range t.sortedSeries() {
			for i := range s.t {
				if err := enc.Encode(sampleRecord{Kind: "sample", Trial: t.index, Name: s.name, TMS: s.t[i], Value: s.v[i]}); err != nil {
					t.mu.Unlock()
					return err
				}
			}
		}
		for _, s := range t.spans {
			rec := spanRecord{
				Kind: "span", Trial: t.index, Name: s.name, Seq: s.seq,
				SimStartMS: s.simStartMS, SimEndMS: s.simEndMS,
			}
			if r.wall {
				rec.WallMS = s.WallMS()
			}
			if err := enc.Encode(rec); err != nil {
				t.mu.Unlock()
				return err
			}
		}
		t.mu.Unlock()
	}
	return bw.Flush()
}

// WriteCSV emits the registry's plottable records as one flat CSV table
// with header kind,trial,name,t_ms,value: every series sample (t_ms set),
// then every counter total (t_ms empty). Histograms and spans
// carry structure CSV flattens poorly; consume those from the JSONL
// stream. Ordering matches WriteJSONL, so the CSV is equally
// deterministic. Nil-safe: a nil registry writes nothing.
func (r *Registry) WriteCSV(w io.Writer) error { return r.writeCSV(w, true) }

// AppendCSV emits the same rows as WriteCSV without the header line, so
// several registries (one per experiment, as in `propsim -exp all`) can
// share one CSV file. Nil-safe.
func (r *Registry) AppendCSV(w io.Writer) error { return r.writeCSV(w, false) }

func (r *Registry) writeCSV(w io.Writer, header bool) error {
	if r == nil {
		return nil
	}
	cw := csv.NewWriter(w)
	if header {
		if err := cw.Write([]string{"kind", "trial", "name", "t_ms", "value"}); err != nil {
			return err
		}
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, t := range r.sortedTrials() {
		t.mu.Lock()
		for _, s := range t.sortedSeries() {
			for i := range s.t {
				if err := cw.Write([]string{"sample", strconv.Itoa(t.index), s.name, ff(s.t[i]), ff(s.v[i])}); err != nil {
					t.mu.Unlock()
					return err
				}
			}
		}
		for _, c := range t.sortedCounters() {
			if err := cw.Write([]string{"counter", strconv.Itoa(t.index), c.name, "", strconv.FormatUint(c.Value(), 10)}); err != nil {
				t.mu.Unlock()
				return err
			}
		}
		t.mu.Unlock()
	}
	cw.Flush()
	return cw.Error()
}

// TrialSnapshot is one trial's instruments flattened for live export
// (expvar); see Registry.Snapshot.
type TrialSnapshot struct {
	Trial    int               `json:"trial"`
	Counters map[string]uint64 `json:"counters,omitempty"`
	Samples  map[string]int    `json:"samples,omitempty"` // series -> point count
	Spans    map[string]string `json:"spans,omitempty"`   // span -> sim interval
}

// Snapshot returns a coarse, JSON-friendly view of the registry — counter
// totals, series lengths, span intervals — for the expvar endpoint. It is
// safe to call while a run is in flight; counters then show partial totals.
// Nil-safe.
func (r *Registry) Snapshot() []TrialSnapshot {
	if r == nil {
		return nil
	}
	var out []TrialSnapshot
	for _, t := range r.sortedTrials() {
		t.mu.Lock()
		ts := TrialSnapshot{Trial: t.index}
		if len(t.counters) > 0 {
			ts.Counters = make(map[string]uint64, len(t.counters))
			for name, c := range t.counters {
				ts.Counters[name] = c.Value()
			}
		}
		if len(t.series) > 0 {
			ts.Samples = make(map[string]int, len(t.series))
			for name, s := range t.series {
				ts.Samples[name] = len(s.t)
			}
		}
		if len(t.spans) > 0 {
			ts.Spans = make(map[string]string, len(t.spans))
			for _, s := range t.spans {
				ts.Spans[s.name] = fmt.Sprintf("[%g,%g]ms", s.simStartMS, s.simEndMS)
			}
		}
		t.mu.Unlock()
		out = append(out, ts)
	}
	return out
}

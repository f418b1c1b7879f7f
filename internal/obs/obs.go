// Package obs is the observability layer of the simulation stack
// (DESIGN.md §8): lock-free sharded counters, fixed-bucket histograms,
// sim-clock-stamped time series, named phase spans, and a per-run
// manifest, plus deterministic JSONL/CSV emitters.
//
// The package is stdlib-only and imports nothing else from this repository,
// so every layer — the latency oracle, the protocol loops, the experiment
// harness, the binaries — can depend on it without cycles.
//
// # Disabled-path contract
//
// Instrumentation is off by default and must stay near-free when off. The
// disabled state is the nil pointer: a nil *Registry yields nil *Trial
// scopes, which yield nil instruments, and every method on every nil
// receiver is a no-op that performs zero allocations. Hot paths that hold
// an instrument pointer may (and the oracle does) additionally guard the
// call behind a single nil check so the disabled cost is one predictable
// branch. TestDisabledPathAllocs and BenchmarkCounterDisabled pin this
// contract.
//
// # Determinism contract
//
// With wall-clock emission off (the default), the byte stream produced by
// WriteJSONL/WriteCSV is a pure function of the simulation: two runs with
// the same seed and options emit byte-identical streams. This holds because
// (a) counter values are order-independent sums, (b) time series and
// histograms are written from the single-threaded event loop, (c) emission
// orders trials by index and instruments by name, and (d) wall-clock
// fields — the only scheduling-dependent data — are suppressed unless
// EnableWallClock was called. TestMetricsStreamDeterministic pins this.
package obs

import (
	"runtime"
	"sort"
	"sync"
)

// SchemaVersion identifies the emitted record layout; it is stamped into
// every manifest. Bump it when record fields change incompatibly.
const SchemaVersion = "prop-metrics/1"

// Manifest identifies one run: what was executed, with which knobs, by
// which toolchain. All fields are deterministic for a fixed binary and
// command line except UnixTime, which is only stamped when the registry
// has wall-clock emission enabled.
type Manifest struct {
	// Schema is the record-layout version (SchemaVersion).
	Schema string `json:"schema"`
	// Experiment is the experiment identifier (e.g. "fig5a").
	Experiment string `json:"experiment"`
	// Seed, Trials, Scale echo the experiment options.
	Seed   uint64  `json:"seed"`
	Trials int     `json:"trials"`
	Scale  float64 `json:"scale"`
	// Preset names the physical-topology preset when one applies.
	Preset string `json:"preset,omitempty"`
	// Flags records any further command-line knobs (JSON sorts map keys,
	// so emission stays deterministic).
	Flags map[string]string `json:"flags,omitempty"`
	// GoVersion, GOOS and GOARCH identify the toolchain and platform.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// UnixTime is the wall-clock start of the run in Unix seconds; zero
	// (and omitted) unless wall-clock emission is enabled.
	UnixTime int64 `json:"unix_time,omitempty"`
}

// NewManifest returns a manifest stamped with the schema version and the
// running toolchain/platform.
func NewManifest(experiment string, seed uint64, trials int, scale float64) Manifest {
	return Manifest{
		Schema:     SchemaVersion,
		Experiment: experiment,
		Seed:       seed,
		Trials:     trials,
		Scale:      scale,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// Registry is the root of one run's instrumentation: a manifest plus one
// Trial scope per experiment trial. A nil *Registry is the disabled state;
// all methods are nil-safe no-ops. Trial lookup is safe for concurrent use
// (trial bodies run on a worker pool).
type Registry struct {
	manifest Manifest
	wall     bool

	mu     sync.Mutex
	trials map[int]*Trial
}

// New creates a registry for one run. Pass the result into the experiment
// options to switch instrumentation on; leave it nil to keep everything
// disabled.
func New(m Manifest) *Registry {
	if m.Schema == "" {
		m.Schema = SchemaVersion
	}
	return &Registry{manifest: m, trials: make(map[int]*Trial)}
}

// EnableWallClock opts the registry into wall-clock fields: span wall_ms
// and the manifest unix_time. Wall times are invaluable for per-phase cost
// attribution but scheduling-dependent, so enabling them forfeits the
// byte-determinism contract of the emitted stream.
func (r *Registry) EnableWallClock() {
	if r == nil {
		return
	}
	r.wall = true
}

// WallClock reports whether wall-clock emission is enabled.
func (r *Registry) WallClock() bool { return r != nil && r.wall }

// SetManifest replaces the registry's manifest, preserving a stamped
// schema version.
func (r *Registry) SetManifest(m Manifest) {
	if r == nil {
		return
	}
	if m.Schema == "" {
		m.Schema = SchemaVersion
	}
	r.manifest = m
}

// Trial returns the scope for one trial index, creating it on first use.
// On a nil registry it returns nil — the disabled scope.
func (r *Registry) Trial(index int) *Trial {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.trials[index]
	if !ok {
		t = &Trial{index: index, wall: r.wall}
		r.trials[index] = t
	}
	return t
}

// sortedTrials returns the trial scopes ordered by index.
func (r *Registry) sortedTrials() []*Trial {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trial, 0, len(r.trials))
	for _, t := range r.trials {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out
}

// Trial is the per-trial instrument scope. Instruments are keyed by
// free-form name; the convention in this repository is
// "<variant label>/<subsystem>.<quantity>" (DESIGN.md §8 lists the names in
// use). Get-or-create lookups are mutex-guarded and safe for concurrent
// use; the returned instruments have their own synchronization disciplines
// (see each type). A nil *Trial is the disabled scope.
type Trial struct {
	index int
	wall  bool

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	series   map[string]*TimeSeries
	spans    []*Span
	spanSeq  int
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil trial.
func (t *Trial) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counters == nil {
		t.counters = make(map[string]*Counter)
	}
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{name: name}
		t.counters[name] = c
	}
	return c
}

// Histogram returns the named fixed-bucket histogram, creating it with the
// given upper bounds on first use (bounds are ignored on later lookups).
// Returns nil on a nil trial.
func (t *Trial) Histogram(name string, bounds []float64) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hists == nil {
		t.hists = make(map[string]*Histogram)
	}
	h, ok := t.hists[name]
	if !ok {
		h = newHistogram(name, bounds)
		t.hists[name] = h
	}
	return h
}

// Series returns the named sim-clock time series, creating it on first
// use. Returns nil on a nil trial.
func (t *Trial) Series(name string) *TimeSeries {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.series == nil {
		t.series = make(map[string]*TimeSeries)
	}
	s, ok := t.series[name]
	if !ok {
		s = &TimeSeries{name: name}
		t.series[name] = s
	}
	return s
}

// StartSpan opens a named phase span at the given sim time (ms). The span
// records wall time alongside; whether wall time is emitted is decided by
// the registry. Returns nil on a nil trial; (*Span).End is nil-safe.
func (t *Trial) StartSpan(name string, simNowMS float64) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := newSpan(name, t.spanSeq, simNowMS)
	t.spanSeq++
	t.spans = append(t.spans, s)
	return s
}

// sortedCounters returns the trial's counters ordered by name.
func (t *Trial) sortedCounters() []*Counter {
	out := make([]*Counter, 0, len(t.counters))
	for _, c := range t.counters {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedHistograms returns the trial's histograms ordered by name.
func (t *Trial) sortedHistograms() []*Histogram {
	out := make([]*Histogram, 0, len(t.hists))
	for _, h := range t.hists {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries returns the trial's time series ordered by name.
func (t *Trial) sortedSeries() []*TimeSeries {
	out := make([]*TimeSeries, 0, len(t.series))
	for _, s := range t.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

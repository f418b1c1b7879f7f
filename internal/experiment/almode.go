package experiment

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// AL-mode names accepted by Options.ALMode / propsim -al-mode.
const (
	// ALModeOff (the default) skips the AL series entirely, keeping every
	// experiment's output byte-identical to the pre-AL-series builds.
	ALModeOff = ""
	// ALModeExact refloods the whole overlay at every sample point — the
	// eq. (3) reference value, partition-tolerant (a metrics.ALTracker with
	// a negative drift budget, so every update is a forced full reflood).
	ALModeExact = "exact"
	// ALModeIncremental maintains the value between sample points with a
	// drift-bounded metrics.ALTracker: only flood rows touched by the batch
	// of topology mutations are repaired.
	ALModeIncremental = "incremental"
	// ALModeSketch estimates from k full source rows with a
	// metrics.ALEstimator (unbiased, O(k·Dijkstra) per sample — the scale
	// tier of the AL ladder, see SCALING.md). Alongside al_ms it records the
	// sketch's standard error as al_stderr_ms and, on a partitioned overlay,
	// the skipped unreachable pairs as the al.unreachable counter.
	ALModeSketch = "sketch"
)

// alProbe evaluates the paper's eq. (3) average latency at experiment
// sample points under the configured Options.ALMode. A nil probe (mode off)
// is a valid no-op receiver for every method.
type alProbe struct {
	mode    string
	tracker *metrics.ALTracker   // exact + incremental modes
	est     *metrics.ALEstimator // sketch mode
}

// newALProbe builds the probe for opt.ALMode over o, or nil when the mode
// is off. seed derives the sketch mode's private generator, so attaching
// the probe never perturbs the experiment's own RNG streams.
func newALProbe(opt Options, o *overlay.Overlay, seed uint64) (*alProbe, error) {
	switch opt.ALMode {
	case ALModeOff:
		return nil, nil
	case ALModeExact:
		tr, err := metrics.NewALTracker(o, nil, metrics.ALTrackerOptions{DriftBudget: -1})
		if err != nil {
			return nil, err
		}
		return &alProbe{mode: opt.ALMode, tracker: tr}, nil
	case ALModeIncremental:
		tr, err := metrics.NewALTracker(o, nil, metrics.ALTrackerOptions{})
		if err != nil {
			return nil, err
		}
		return &alProbe{mode: opt.ALMode, tracker: tr}, nil
	case ALModeSketch:
		est, err := metrics.NewALEstimator(metrics.OverlayFloodSource(o, nil),
			metrics.ALEstimatorOptions{}, rng.New(seed^0xa17e57e57))
		if err != nil {
			return nil, err
		}
		return &alProbe{mode: opt.ALMode, est: est}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown AL mode %q (want %q, %q or %q)",
			opt.ALMode, ALModeExact, ALModeIncremental, ALModeSketch)
	}
}

// measure evaluates AL at simulated time t and records it (plus the sketch
// mode's standard error and unreachable-pair counter) on the trial's
// metrics stream.
func (p *alProbe) measure(tr *obs.Trial, prefix string, t float64) (float64, error) {
	if p == nil {
		return 0, nil
	}
	var al float64
	switch p.mode {
	case ALModeSketch:
		sk, err := p.est.Estimate()
		if err != nil {
			return 0, fmt.Errorf("experiment: sketch AL at t=%v: %w", t, err)
		}
		if tr != nil {
			tr.Series(prefix+"al_stderr_ms").Sample(t, sk.StdErr)
			if sk.Unreachable > 0 {
				tr.Counter(prefix + "al.unreachable").Add(uint64(sk.Unreachable))
			}
		}
		al = sk.AL
	default: // exact and incremental share the tracker path
		p.tracker.Update()
		al = p.tracker.Value()
	}
	if tr != nil {
		tr.Series(prefix+"al_ms").Sample(t, al)
	}
	return al, nil
}

// update absorbs pending topology mutations immediately (incremental mode
// only — keeping each repair batch small). Experiments attach this to
// churn.Runner.AfterEvent; in the other modes nothing is maintained
// between sample points, so it is a no-op.
func (p *alProbe) update() {
	if p != nil && p.mode == ALModeIncremental {
		p.tracker.Update()
	}
}

// close detaches the tracker's overlay hook and mutation journal. Safe on
// nil and sketch-mode probes.
func (p *alProbe) close() {
	if p != nil && p.tracker != nil {
		p.tracker.Detach()
	}
}

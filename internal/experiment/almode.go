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
	// eq. (3) reference value, partition-tolerant: unreachable pairs are
	// left out of the mass (metrics.FiniteAverageLatency).
	ALModeExact = "exact"
	// ALModeSketch estimates from k full source rows with a
	// metrics.ALEstimator (unbiased, O(k·Dijkstra) per sample — the scale
	// tier of the AL ladder, see SCALING.md). Alongside al_ms it records the
	// sketch's standard error as al_stderr_ms and, on a partitioned overlay,
	// the skipped unreachable pairs as the al.unreachable counter.
	ALModeSketch = "sketch"
)

// alProbe evaluates the paper's eq. (3) average latency at experiment
// sample points under the configured Options.ALMode. A nil probe (mode off)
// is a valid no-op receiver for measure.
type alProbe struct {
	fs  metrics.FloodSource
	est *metrics.ALEstimator // sketch mode; nil in exact mode
}

// newALProbe builds the probe for mode over o, or nil when the mode is off
// (Run has already rejected unknown modes). seed derives the sketch mode's
// private generator, so attaching the probe never perturbs the
// experiment's own RNG streams.
func newALProbe(mode string, o *overlay.Overlay, seed uint64) (*alProbe, error) {
	if mode == ALModeOff {
		return nil, nil
	}
	p := &alProbe{fs: metrics.OverlayFloodSource(o, nil)}
	if mode == ALModeSketch {
		var err error
		if p.est, err = metrics.NewALEstimator(p.fs, metrics.ALEstimatorOptions{}, rng.New(seed^0xa17e57e57)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// measure evaluates AL at simulated time t and records it (plus the sketch
// mode's standard error and unreachable-pair counter) on the trial's
// metrics stream.
func (p *alProbe) measure(tr *obs.Trial, prefix string, t float64) error {
	if p == nil {
		return nil
	}
	var al float64
	if p.est != nil {
		sk, err := p.est.Estimate()
		if err != nil {
			return fmt.Errorf("experiment: sketch AL at t=%v: %w", t, err)
		}
		if tr != nil {
			tr.Series(prefix+"al_stderr_ms").Sample(t, sk.StdErr)
			if sk.Unreachable > 0 {
				tr.Counter(prefix + "al.unreachable").Add(uint64(sk.Unreachable))
			}
		}
		al = sk.AL
	} else {
		var err error
		if al, _, err = metrics.FiniteAverageLatency(p.fs); err != nil {
			return fmt.Errorf("experiment: exact AL at t=%v: %w", t, err)
		}
	}
	if tr != nil {
		tr.Series(prefix+"al_ms").Sample(t, al)
	}
	return nil
}

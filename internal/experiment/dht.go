package experiment

import (
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/stats"
)

// The combination studies (§1, §6: PROP-G "combined with other recent
// approaches"): both DHT geometries the paper evaluates — ring (Chord) and
// torus (CAN) — run the same 2×2 of {plain, its own proximity method} ×
// {no PROP, PROP-G to the horizon}, the test of the claim that PROP-G
// composes with — rather than replaces — protocol-specific methods.

// study is one substrate of a combination study. build constructs n nodes
// with the proximity method on or off and returns the overlay, the table
// maintenance to run after the exchanges (nil for none), and the stretch
// measurement over count lookups.
type study struct {
	label string
	build func(e *env, n, count int, prox bool) (o *overlay.Overlay, refresh func(), stretch func() float64, err error)
}

var (
	// chordStudy: PNS fingers. Chord stabilization after the exchanges
	// re-picks the finger candidates against the new host mapping.
	chordStudy = study{"Chord", func(e *env, n, count int, pns bool) (*overlay.Overlay, func(), func() float64, error) {
		ring, err := e.buildChord(n, pns)
		if err != nil {
			return nil, nil, nil, err
		}
		return ring.O, ring.Refresh, func() float64 { return e.chordWorkload(ring, count)() }, nil
	}}
	// canStudy: PIS landmark binning.
	canStudy = study{"CAN", func(e *env, n, count int, pis bool) (*overlay.Overlay, func(), func() float64, error) {
		sp, err := e.buildCAN(n, pis)
		if err != nil {
			return nil, nil, nil, err
		}
		return sp.O, nil, func() float64 {
			return e.drawnStretch(sp.O, count, func(src int, r *rng.Rand) (overlay.LookupResult, error) {
				return sp.Route(src, can.RandomPoint(r))
			})
		}, nil
	}}
)

// proximityTrial runs the 2×2 of every study, one stretch series per study
// at x = 0..3 (plain, proximity only, PROP-G only, both). Chord and CAN
// draw their hosts from one world in that order.
func proximityTrial(c *trialCtx) ([]stats.Series, error) {
	n, count := scaled(1000, c.Scale, 100), scaled(paperLookups, c.Scale, 100)
	e, err := newEnv(netsim.TSLarge(), c.world)
	if err != nil {
		return nil, err
	}
	var out []stats.Series
	for _, st := range []study{chordStudy, canStudy} {
		s := stats.Series{Label: st.label}
		for x, cell := range []struct{ prox, prop bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			o, refresh, stretch, err := st.build(e, n, count, cell.prox)
			if err != nil {
				return nil, err
			}
			if cell.prop {
				if _, err := runPROP(o, core.DefaultConfig(core.PROPG), e.r.Split(), horizonMS); err != nil {
					return nil, err
				}
				if refresh != nil {
					refresh()
				}
			}
			s.Add(float64(x), stretch())
		}
		out = append(out, s)
	}
	return out, nil
}

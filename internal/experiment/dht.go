package experiment

import (
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/kademlia"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/pastry"
	"repro/internal/rng"
	"repro/internal/stats"
)

// The combination studies (§1, §6: PROP-G "combined with other recent
// approaches"): every DHT geometry — ring (Chord), torus (CAN), prefix tree
// (Pastry), XOR metric (Kademlia) — runs the same 2×2 of {plain, its own
// proximity method} × {no PROP, PROP-G to the horizon}. Pastry natively
// implements proximity neighbor selection and Kademlia's k-buckets give it
// maximal freedom, which makes them the sharpest tests of the claim that
// PROP-G composes with — rather than replaces — protocol-specific methods.

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
			return e.drawnStretch(sp.O, count, func(src int, r *rng.Rand) (int, float64, error) {
				res, err := sp.Route(src, can.RandomPoint(r), nil)
				return res.Owner, res.Latency, err
			})
		}, nil
	}}
	// pastryStudy: native proximity routing tables, re-picked after the
	// exchanges (a no-op for plain tables).
	pastryStudy = study{"Pastry", func(e *env, n, count int, prox bool) (*overlay.Overlay, func(), func() float64, error) {
		cfg := pastry.DefaultConfig()
		cfg.Proximity = prox
		mesh, err := pastry.Build(e.net.PickHosts(n, e.r), cfg, e.oracle.Latency, e.r)
		if err != nil {
			return nil, nil, nil, err
		}
		return mesh.O, mesh.Refresh, func() float64 {
			return e.drawnStretch(mesh.O, count, func(src int, r *rng.Rand) (int, float64, error) {
				res, err := mesh.Lookup(src, pastry.RandomKey(r), nil)
				return res.Owner, res.Latency, err
			})
		}, nil
	}}
	// kademliaStudy: proximity k-buckets.
	kademliaStudy = study{"Kademlia", func(e *env, n, count int, prox bool) (*overlay.Overlay, func(), func() float64, error) {
		cfg := kademlia.DefaultConfig()
		cfg.Proximity = prox
		net, err := kademlia.Build(e.net.PickHosts(n, e.r), cfg, e.oracle.Latency, e.r)
		if err != nil {
			return nil, nil, nil, err
		}
		return net.O, net.Refresh, func() float64 {
			return e.drawnStretch(net.O, count, func(src int, r *rng.Rand) (int, float64, error) {
				res, err := net.Lookup(src, kademlia.RandomKey(r), nil)
				return res.Owner, res.Latency, err
			})
		}, nil
	}}
)

// proximityTrial runs the 2×2 of every study over one world, one stretch
// series per study at x = 0..3 (plain, proximity only, PROP-G only, both).
func proximityTrial(studies ...study) func(*trialCtx) ([]stats.Series, error) {
	return func(c *trialCtx) ([]stats.Series, error) {
		e, err := newEnv(netsim.TSLarge(), c.world)
		if err != nil {
			return nil, err
		}
		n, count := scaled(1000, c.Scale, 100), scaled(paperLookups, c.Scale, 100)
		out := make([]stats.Series, len(studies))
		for i, st := range studies {
			out[i] = stats.Series{Label: st.label}
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
				out[i].Add(float64(x), stretch())
			}
		}
		return out, nil
	}
}

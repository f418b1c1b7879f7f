package experiment

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/pastry"
	"repro/internal/rng"
	"repro/internal/stats"
)

// The Pastry experiment extends the combination study to a third DHT
// geometry (prefix routing + leaf sets). Pastry natively implements
// proximity neighbor selection, so it is the sharpest test of the paper's
// claim that PROP-G composes with — rather than replaces — protocol-
// specific proximity methods.

func init() {
	registry["pastry"] = runner{
		describe: "extension: PROP-G on Pastry, alone and with native proximity tables",
		run:      runPastry,
	}
}

func runPastry(opt Options) (*Result, error) {
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		return onePastryTrial(opt, trialSeed(opt.Seed, trial))
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "pastry",
		Title:  "PROP-G on Pastry (final routing stretch after optimization)",
		XLabel: "method",
		YLabel: "stretch",
		Series: mergeTrials(perTrial),
		Notes: []string{
			"method index: 0=plain, 1=proximity tables only, 2=PROP-G only, 3=proximity + PROP-G",
			"expected shape: all optimized variants beat plain; the combination is at least as good as either alone",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

func onePastryTrial(opt Options, seed uint64) ([]stats.Series, error) {
	e, err := newEnv(netsim.TSLarge(), seed)
	if err != nil {
		return nil, err
	}
	n := scaled(1000, opt.Scale, 100)
	nLookups := scaled(paperLookups, opt.Scale, 100)

	series, err := proximityStudy("Pastry", e, func(prox bool) (*overlay.Overlay, func(), func() float64, error) {
		cfg := pastry.DefaultConfig()
		cfg.Proximity = prox
		mesh, err := pastry.Build(e.pickHosts(n), cfg, e.oracle.Latency, e.r)
		if err != nil {
			return nil, nil, nil, err
		}
		// Table maintenance after the exchanges (re-picks proximity
		// candidates; a no-op for plain tables).
		refresh := func() { mesh.Refresh(e.oracle.Latency) }
		stretch := func() float64 {
			return drawnRoutingStretch(mesh.O, e, nLookups, func(src int, r *rng.Rand) (int, float64, error) {
				res, err := mesh.Lookup(src, pastry.RandomKey(r), nil)
				return res.Owner, res.Latency, err
			})
		}
		return mesh.O, refresh, stretch, nil
	})
	if err != nil {
		return nil, err
	}
	return []stats.Series{series}, nil
}

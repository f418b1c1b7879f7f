package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Ablation experiments for the design choices §3.2 and §5.1 fix by fiat:
// the warm-up length MAX_INIT_TRIAL ("simulations in a later section shows
// this number to be less than ten") and the exchange threshold MIN_VAR
// (§4.2 argues for 0). Each ablation sweeps the parameter and reports the
// end-state quality plus the protocol cost, so the choice is visible in
// data rather than asserted.

func init() {
	registry["warmup"] = runner{
		describe: "ablation: MAX_INIT_TRIAL sweep — why the warm-up is ~10 probes",
		run:      runWarmupAblation,
	}
	registry["minvar"] = runner{
		describe: "ablation: MIN_VAR threshold sweep — why the exchange gate is 0",
		run:      runMinVarAblation,
	}
}

// runWarmupAblation sweeps the warm-up length. Short warm-ups hand control
// to the back-off timer before the overlay has converged (fewer probes →
// less improvement); warm-ups beyond ~10 buy almost nothing but keep
// probing at full rate. Both effects are visible in the two series.
func runWarmupAblation(opt Options) (*Result, error) {
	trialLens := []int{1, 2, 5, 10, 20, 40}
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		e, err := newEnv(netsim.TSLarge(), trialSeed(opt.Seed, trial))
		if err != nil {
			return nil, err
		}
		n := scaled(1000, opt.Scale, 100)
		base, err := e.buildGnutella(n)
		if err != nil {
			return nil, err
		}
		latency := stats.Series{Label: "final mean link latency (ms)"}
		probes := stats.Series{Label: "probes per node"}
		for vi, w := range trialLens {
			oc := base.Clone()
			cfg := core.DefaultConfig(core.PROPG)
			cfg.MaxInitTrials = w
			p, err := core.New(oc, cfg, rng.New(trialSeed(opt.Seed, 2000+trial*100+vi)))
			if err != nil {
				return nil, err
			}
			eng := event.New()
			p.Start(eng)
			eng.RunUntil(2 * horizonMS) // 60 min: long enough for back-off to matter
			latency.Add(float64(w), oc.MeanLinkLatency())
			probes.Add(float64(w), float64(p.Counters.Probes)/float64(n))
		}
		return []stats.Series{latency, probes}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "warmup",
		Title:  "Ablation: warm-up length MAX_INIT_TRIAL vs final quality and probe cost",
		XLabel: "MAX_INIT_TRIAL",
		YLabel: "mean link latency (ms) | probes per node",
		Series: mergeTrials(perTrial),
		Notes: []string{
			"expected: latency improves sharply up to ~10 trials, then flattens while probe cost keeps rising",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

// runMinVarAblation sweeps the exchange threshold. §4.2: any Var > 0
// exchange reduces the accumulated latency, so MIN_VAR = 0 harvests all
// gains; raising the bar skips small-but-real improvements and the
// end-state degrades monotonically, while the number of exchanges falls.
func runMinVarAblation(opt Options) (*Result, error) {
	thresholds := []float64{0, 25, 50, 100, 200, 400}
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		e, err := newEnv(netsim.TSLarge(), trialSeed(opt.Seed, trial))
		if err != nil {
			return nil, err
		}
		n := scaled(1000, opt.Scale, 100)
		base, err := e.buildGnutella(n)
		if err != nil {
			return nil, err
		}
		latency := stats.Series{Label: "final mean link latency (ms)"}
		exchanges := stats.Series{Label: "exchanges executed"}
		for vi, th := range thresholds {
			oc := base.Clone()
			cfg := core.DefaultConfig(core.PROPG)
			cfg.MinVar = th
			p, err := core.New(oc, cfg, rng.New(trialSeed(opt.Seed, 3000+trial*100+vi)))
			if err != nil {
				return nil, err
			}
			eng := event.New()
			p.Start(eng)
			eng.RunUntil(horizonMS)
			latency.Add(th, oc.MeanLinkLatency())
			exchanges.Add(th, float64(p.Counters.Exchanges))
		}
		return []stats.Series{latency, exchanges}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "minvar",
		Title:  "Ablation: MIN_VAR exchange threshold vs final quality and exchange count",
		XLabel: "MIN_VAR (ms)",
		YLabel: "mean link latency (ms) | exchanges",
		Series: mergeTrials(perTrial),
		Notes: []string{
			"expected: latency is best at MIN_VAR=0 and degrades as the gate rises; exchanges fall monotonically",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/stats"
)

// The noise experiment probes a deployment concern the paper leaves
// implicit: PROP decides exchanges from measured RTTs, and real RTT
// measurements are noisy. We perturb every probe measurement by a
// multiplicative Gaussian (the exchange itself still changes ground truth)
// and sweep the noise level. The Var > 0 gate averages 2c (or 2m)
// measurements per decision, so moderate noise should wash out; at high
// noise the protocol starts executing harmful exchanges and the end state
// degrades gracefully toward no-op.

func init() {
	registry["noise"] = runner{
		describe: "robustness: PROP-G under multiplicative probe-RTT measurement noise",
		run:      runNoise,
	}
}

func runNoise(opt Options) (*Result, error) {
	levels := []float64{0, 0.1, 0.25, 0.5, 1.0, 2.0}
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
		harmful := stats.Series{Label: "harmful exchange fraction"}
		for vi, sigma := range levels {
			oc := base.Clone()
			cfg := core.DefaultConfig(core.PROPG)
			cfg.MeasurementNoise = sigma
			p, err := core.New(oc, cfg, rng.New(trialSeed(opt.Seed, 4000+trial*100+vi)))
			if err != nil {
				return nil, err
			}
			// Count exchanges whose TRUE gain was negative.
			bad, total := 0, 0
			last := totalNeighborLatency(oc)
			p.Trace = func(core.ExchangeEvent) {
				now := totalNeighborLatency(oc)
				total++
				if now > last {
					bad++
				}
				last = now
			}
			eng := event.New()
			p.Start(eng)
			eng.RunUntil(horizonMS)
			latency.Add(sigma, oc.MeanLinkLatency())
			if total > 0 {
				harmful.Add(sigma, float64(bad)/float64(total))
			} else {
				harmful.Add(sigma, 0)
			}
		}
		return []stats.Series{latency, harmful}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "noise",
		Title:  "Robustness: PROP-G under probe measurement noise",
		XLabel: "noise σ (fraction of true RTT)",
		YLabel: "final mean link latency (ms) | harmful exchange fraction",
		Series: mergeTrials(perTrial),
		Notes: []string{
			"noise perturbs the Var decision only; topology changes always apply to ground truth",
			"expected: near-flat latency at σ≈0.1 (Var averages many measurements), graceful degradation beyond; harmful-exchange fraction grows with σ but individual harms stay small",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

// totalNeighborLatency sums every node's true neighbor-latency total.
func totalNeighborLatency(o interface {
	AliveSlots() []int
	NeighborLatencySum(int) float64
}) float64 {
	s := 0.0
	for _, slot := range o.AliveSlots() {
		s += o.NeighborLatencySum(slot)
	}
	return s
}

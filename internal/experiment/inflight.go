package experiment

import (
	"fmt"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/livesim"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// The inflight experiment verifies §3.2's correctness mechanism at message
// granularity: lookups route hop-by-hop on the simulated clock while PROP-G
// exchanges fire between (and during) hops. The counterpart cache written
// at exchange time redirects stale arrivals; re-resolution via notified
// routing entries covers the double-exchange race. The paper asserts this
// works; here it is measured.

func init() {
	registry["inflight"] = runner{
		describe: "§3.2: lookups in flight during peer-exchanges — counterpart-cache correctness",
		run:      runInflight,
	}
}

func runInflight(opt Options) (*Result, error) {
	// Exchange pressure rises as the probe timer shrinks.
	timers := []struct {
		label   string
		timerMS float64
	}{
		{"quiet (no exchanges)", 1e12},
		{"paper pace (60 s)", 60000},
		{"aggressive (1 s)", 1000},
		{"hostile (50 ms)", 50},
	}
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		e, err := newEnv(netsim.TSLarge(), trialSeed(opt.Seed, trial))
		if err != nil {
			return nil, err
		}
		n := scaled(1000, opt.Scale, 100)
		nLookups := scaled(2000, opt.Scale, 200)

		correct := stats.Series{Label: "correct fraction"}
		stale := stats.Series{Label: "stale arrivals per 1000 lookups"}
		exchanges := stats.Series{Label: "exchanges during run"}
		for vi, v := range timers {
			ring, err := e.buildChord(n, false)
			if err != nil {
				return nil, err
			}
			cfg := core.DefaultConfig(core.PROPG)
			cfg.InitTimerMS = v.timerMS
			p, err := core.New(ring.O, cfg, e.r.Split())
			if err != nil {
				return nil, err
			}
			sim, err := livesim.New(ring, p)
			if err != nil {
				return nil, err
			}
			eng := event.New()
			p.Start(eng)
			lr := e.r.Split()
			slots := ring.O.AliveSlots()
			horizon := 120000.0
			for i := 0; i < nLookups; i++ {
				at := event.Time(lr.Float64() * horizon * 0.8)
				sim.IssueLookup(eng, at, slots[lr.Intn(len(slots))], chord.RandomKey(lr))
			}
			eng.RunUntil(event.Time(horizon))
			sum := sim.Summarize()
			if sum.Lookups != nLookups {
				return nil, fmt.Errorf("inflight %s: %d of %d lookups finished",
					v.label, sum.Lookups, nLookups)
			}
			correct.Add(float64(vi), float64(sum.Correct)/float64(sum.Lookups))
			stale.Add(float64(vi), float64(sum.Redirects+sum.Reresolves)/float64(sum.Lookups)*1000)
			exchanges.Add(float64(vi), float64(p.Counters.Exchanges))
		}
		return []stats.Series{correct, stale, exchanges}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "inflight",
		Title:  "Lookups concurrent with peer-exchanges: counterpart-cache correctness",
		XLabel: "variant",
		YLabel: "correct fraction | stale/1000 | exchanges",
		Series: mergeTrials(perTrial),
		Notes: []string{
			"variant index: 0=quiet, 1=paper pace (60s timer), 2=aggressive (1s), 3=hostile (50ms)",
			"expected: correct fraction 1.0 in every variant; stale arrivals grow with exchange pressure and are absorbed by the cache",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

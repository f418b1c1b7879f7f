package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gnutella"
	"repro/internal/ltm"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/stats"
)

// The traffic experiment quantifies the paper's §1 motivation directly:
// "a well-routed message path … may result in a long delay and EXCESSIVE
// TRAFFIC due to the mismatch between logical and physical networks."
// We flood TTL-limited queries and measure, per query: messages on the
// wire, peers reached, and latency-weighted traffic (ms of link latency
// crossed). PROP never changes the message count — PROP-G keeps the graph,
// PROP-O keeps the degrees — it only makes each message cheaper; LTM also
// rewires the message count itself.

func init() {
	registry["traffic"] = runner{
		describe: "extension: TTL-flood traffic cost before/after PROP-G, PROP-O, LTM",
		run:      runTraffic,
	}
}

// floodTTL is the Gnutella query TTL (the classic default is 7; 4 keeps
// duplicate storms bounded at simulation scale while still covering the
// overlay).
const floodTTL = 4

func runTraffic(opt Options) (*Result, error) {
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
		// Sources for the flood sample.
		srcCount := scaled(100, opt.Scale, 20)
		slots := base.AliveSlots()
		sources := make([]int, 0, srcCount)
		sr := e.r.Split()
		for i := 0; i < srcCount; i++ {
			sources = append(sources, slots[sr.Intn(len(slots))])
		}

		msgs := stats.Series{Label: "messages per query"}
		traffic := stats.Series{Label: "traffic (ms per query)"}
		reached := stats.Series{Label: "peers reached"}

		record := func(idx int, o *overlay.Overlay) {
			st := gnutella.MeanFloodStats(o, sources, floodTTL)
			msgs.Add(float64(idx), float64(st.Messages))
			traffic.Add(float64(idx), st.TrafficMS)
			reached.Add(float64(idx), float64(st.Reached))
		}

		// 0: unoptimized.
		record(0, base)

		// 1: PROP-G.
		{
			oc := base.Clone()
			p, err := core.New(oc, core.DefaultConfig(core.PROPG), e.r.Split())
			if err != nil {
				return nil, err
			}
			eng := event.New()
			p.Start(eng)
			eng.RunUntil(horizonMS)
			record(1, oc)
		}
		// 2: PROP-O.
		{
			oc := base.Clone()
			p, err := core.New(oc, core.DefaultConfig(core.PROPO), e.r.Split())
			if err != nil {
				return nil, err
			}
			eng := event.New()
			p.Start(eng)
			eng.RunUntil(horizonMS)
			record(2, oc)
		}
		// 3: LTM.
		{
			oc := base.Clone()
			p, err := ltm.New(oc, ltm.DefaultConfig(), e.r.Split())
			if err != nil {
				return nil, err
			}
			eng := event.New()
			p.Start(eng)
			eng.RunUntil(horizonMS)
			record(3, oc)
		}
		return []stats.Series{msgs, traffic, reached}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "traffic",
		Title:  "TTL-flood traffic per query: unoptimized vs PROP-G vs PROP-O vs LTM",
		XLabel: "variant",
		YLabel: "messages | ms traffic | peers reached",
		Series: mergeTrials(perTrial),
		Notes: []string{
			"variant index: 0=unoptimized, 1=PROP-G, 2=PROP-O, 3=LTM",
			fmt.Sprintf("flood TTL = %d", floodTTL),
			"expected: PROP-G leaves the message count untouched (identical graph) while cutting ms-traffic; PROP-O leaves degrees (≈message count) while cutting ms-traffic; LTM changes the message count itself",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

package experiment

import (
	"fmt"

	"repro/internal/chord"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// The chordchurn experiment extends the §3.2/§4.3 dynamics story to the
// structured substrate: a Chord ring under Poisson membership churn while
// PROP-G keeps optimizing. It verifies the same two claims — probe
// frequency spikes and decays, quality recovers — plus the structured
// system's own invariant: every sampled lookup reaches the true owner
// throughout the churn window.

func init() {
	registry["chordchurn"] = runner{
		describe: "extension: PROP-G on Chord under membership churn (probe rate, stretch, lookup correctness)",
		run:      runChordChurn,
	}
}

func runChordChurn(opt Options) (*Result, error) {
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		return oneChordChurnTrial(opt, trialSeed(opt.Seed, trial))
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "chordchurn",
		Title:  "PROP-G on Chord under churn: probe rate, routing stretch, lookup correctness",
		XLabel: "time (min)",
		YLabel: "probes/node/min | stretch | correct fraction",
		Series: mergeTrials(perTrial),
		Notes: []string{
			fmt.Sprintf("churn window: minutes %d-%d (Poisson joins and leaves, ~25%% of peers)", churnStartMS/60000, churnStopMS/60000),
			"expected: probe spike in the window with decay after; stretch bump and recovery; correctness pinned at 1.0",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

func oneChordChurnTrial(opt Options, seed uint64) ([]stats.Series, error) {
	e, err := newEnv(netsim.TSLarge(), seed)
	if err != nil {
		return nil, err
	}
	n := scaled(1000, opt.Scale, 100)
	hosts := e.pickHosts(len(e.net.StubHosts))
	if n > len(hosts) {
		n = len(hosts)
	}
	active := hosts[:n]
	pool := append([]int(nil), hosts[n:]...)
	ring, err := chord.Build(active, chord.DefaultConfig(), e.oracle.Latency, e.r)
	if err != nil {
		return nil, err
	}
	p, err := core.New(ring.O, core.DefaultConfig(core.PROPG), e.r.Split())
	if err != nil {
		return nil, err
	}
	eng := event.New()
	p.Start(eng)

	churnEvents := n / 4
	if churnEvents < 1 {
		churnEvents = 1
	}
	meanInterval := float64(churnStopMS-churnStartMS) / float64(churnEvents)
	cr := e.r.Split()
	runner, err := churn.NewRunner(churn.Config{
		StartMS:             churnStartMS,
		StopMS:              churnStopMS,
		MeanJoinIntervalMS:  meanInterval,
		MeanLeaveIntervalMS: meanInterval,
	}, cr)
	if err != nil {
		return nil, err
	}
	runner.OnJoin = func(en *event.Engine) error {
		if len(pool) == 0 {
			return fmt.Errorf("no spare hosts")
		}
		host := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		slot, err := ring.Join(host, e.oracle.Latency, cr)
		if err != nil {
			return err
		}
		return p.AddNode(en, slot)
	}
	runner.OnLeave = func(en *event.Engine) error {
		alive := ring.O.AliveSlots()
		if len(alive) < 10 {
			return fmt.Errorf("ring too small to shrink")
		}
		victim := alive[cr.Intn(len(alive))]
		host := ring.O.HostOf(victim)
		former := ring.O.Neighbors(victim)
		if err := ring.Leave(victim, e.oracle.Latency); err != nil {
			return err
		}
		p.RemoveNode(en, victim, former)
		pool = append(pool, host)
		return nil
	}
	runner.Start(eng)

	lookupsPerSample := scaled(200, opt.Scale, 50)
	lr := e.r.Split()
	probeSeries := stats.Series{Label: "probes/node/min"}
	stretchSeries := stats.Series{Label: "stretch"}
	correctSeries := stats.Series{Label: "correct fraction"}
	lastProbes := uint64(0)
	const sampleStep = 60000.0
	for t := 0.0; t <= churnHorizonMS; t += sampleStep {
		eng.RunUntil(event.Time(t))
		dp := p.Counters.Probes - lastProbes
		lastProbes = p.Counters.Probes
		nodes := ring.O.NumAlive()
		if nodes == 0 {
			nodes = 1
		}
		probeSeries.Add(t/60000, float64(dp)/float64(nodes))

		// Routing stretch and correctness over a fresh random workload.
		alive := ring.O.AliveSlots()
		sum, okCount, correct := 0.0, 0, 0
		for i := 0; i < lookupsPerSample; i++ {
			src := alive[lr.Intn(len(alive))]
			key := chord.RandomKey(lr)
			res, err := ring.Lookup(src, key, nil)
			if err != nil {
				continue
			}
			if res.Owner == ring.Owner(key) {
				correct++
			}
			if res.Owner == src {
				continue
			}
			direct := e.oracle.Latency(ring.O.HostOf(src), ring.O.HostOf(res.Owner))
			if direct <= 0 {
				continue
			}
			sum += res.Latency / direct
			okCount++
		}
		if okCount > 0 {
			stretchSeries.Add(t/60000, sum/float64(okCount))
		} else {
			stretchSeries.Add(t/60000, 0)
		}
		correctSeries.Add(t/60000, float64(correct)/float64(lookupsPerSample))
	}
	if !ring.O.Connected() {
		return nil, fmt.Errorf("chord churn disconnected the overlay")
	}
	return []stats.Series{probeSeries, stretchSeries, correctSeries}, nil
}

package experiment

import (
	"fmt"

	"repro/internal/chord"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gnutella"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/stats"
)

// Churn experiment time structure: steady state, then a churn window, then
// recovery, sampling each minute. The figR* rows reuse the window.
const (
	churnHorizonMS = 60 * 60000
	churnStartMS   = 20 * 60000
	churnStopMS    = 35 * 60000
	minuteMS       = 60000.0
)

// churnWorld is the Poisson join/leave scaffold churn and chordchurn
// share: PROP-G over n of the trial's shuffled hosts while about n/4 spare
// hosts join and n/4 peers leave inside the churn window.
type churnWorld struct {
	e      *env
	o      *overlay.Overlay
	p      *core.Protocol
	runner *churn.Runner
}

// newChurnWorld builds the scaffold; build makes the overlay over the
// active hosts and returns it with its membership rule. The oracle counts
// queries under prefix when it is set.
func (c *trialCtx) newChurnWorld(prefix string, build func(e *env, active []int) (*overlay.Overlay, overlay.Membership, error)) (*churnWorld, error) {
	e, err := newEnv(netsim.TSLarge(), c.world)
	if err != nil {
		return nil, err
	}
	if prefix != "" {
		e.instrumentOracle(c.tr, prefix)
	}
	n := scaled(1000, c.Scale, 100)
	hosts := e.net.PickHosts(len(e.net.StubHosts), e.r) // all hosts, shuffled
	n = min(n, len(hosts))
	pool := append([]int(nil), hosts[n:]...) // joiners draw from here
	o, m, err := build(e, hosts[:n])
	if err != nil {
		return nil, err
	}
	p, err := core.New(o, core.DefaultConfig(core.PROPG), e.r.Split())
	if err != nil {
		return nil, err
	}
	meanInterval := float64(churnStopMS-churnStartMS) / float64(max(n/4, 1))
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
		slot, err := m.Join(host, cr)
		if err != nil {
			return err
		}
		return p.AddNode(en, slot)
	}
	runner.OnLeave = func(en *event.Engine) error {
		alive := o.AliveSlots()
		if len(alive) < 10 {
			return fmt.Errorf("overlay too small to shrink")
		}
		victim := alive[cr.Intn(len(alive))]
		host := o.HostOf(victim)
		former := o.Neighbors(victim)
		if err := m.Leave(victim, cr); err != nil {
			return err
		}
		p.RemoveNode(en, victim, former)
		pool = append(pool, host)
		return nil
	}
	return &churnWorld{e: e, o: o, p: p, runner: runner}, nil
}

// run drives the world to churnHorizonMS and returns the probes/node/min
// series sampled every minute; sample records the row's own quantities at
// the same instants (rate is that minute's probe rate).
func (w *churnWorld) run(sample func(t, rate float64) error) (stats.Series, error) {
	probes := stats.Series{Label: "probes/node/min"}
	last := uint64(0)
	err := optimize(event.New(), w.p, churnHorizonMS, minuteMS, func(t float64) error {
		rate := float64(w.p.Counters.Probes-last) / float64(max(w.o.NumAlive(), 1))
		last = w.p.Counters.Probes
		probes.Add(t/60000, rate)
		return sample(t, rate)
	}, w.runner.Start)
	if err == nil && !w.o.Connected() {
		err = fmt.Errorf("churn disconnected the overlay")
	}
	return probes, err
}

// churnTrial reproduces the dynamics claim: probe frequency spikes when
// churn begins (timers reset, fresh neighbors probed early) and decays
// exponentially after churn stops, while stretch recovers.
func churnTrial(c *trialCtx) ([]stats.Series, error) {
	const prefix = "churn/"
	w, err := c.newChurnWorld(prefix, func(e *env, active []int) (*overlay.Overlay, overlay.Membership, error) {
		o, err := gnutella.Build(active, gnutella.DefaultConfig(), e.oracle.Latency, e.r)
		return o, gnutella.Net{O: o, Config: gnutella.DefaultConfig()}, err
	})
	if err != nil {
		return nil, err
	}
	al, err := newALProbe(c.ALMode, w.o, c.world)
	if err != nil {
		return nil, err
	}
	hookExchangeTrace(c.tr, prefix, w.p)

	tr, phys := c.tr, w.e.meanPhysLink()
	sp := tr.StartSpan(prefix+"simulate", 0)
	stretch := stats.Series{Label: "stretch"}
	probes, err := w.run(func(t, rate float64) error {
		stretch.Add(t/60000, w.o.Stretch(phys))
		if err := al.measure(tr, prefix, t); err != nil {
			return err
		}
		if tr != nil {
			tr.Series(prefix+"probe_rate").Sample(t, rate)
			tr.Series(prefix+"stretch").Sample(t, w.o.Stretch(phys))
			tr.Series(prefix+"alive_nodes").Sample(t, float64(w.o.NumAlive()))
			sampleProtocol(tr, prefix, t, w.p, w.o)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sp.End(churnHorizonMS)
	recordCounterTotals(tr, prefix+"prop.", w.p.Counters)
	return []stats.Series{probes, stretch}, nil
}

// chordChurnTrial extends the dynamics story to the structured substrate:
// a Chord ring under the same churn while PROP-G keeps optimizing. It
// checks the same two claims — probe frequency spikes and decays, quality
// recovers — plus the structured system's own invariant: every sampled
// lookup reaches the true owner throughout the churn window.
func chordChurnTrial(c *trialCtx) ([]stats.Series, error) {
	var ring *chord.Ring
	w, err := c.newChurnWorld("", func(e *env, active []int) (*overlay.Overlay, overlay.Membership, error) {
		var err error
		if ring, err = chord.Build(active, chord.DefaultConfig(), e.oracle.Latency, e.r); err != nil {
			return nil, nil, err
		}
		return ring.O, ring, nil
	})
	if err != nil {
		return nil, err
	}
	count := scaled(200, c.Scale, 50)
	lr := w.e.r.Split()
	stretch := stats.Series{Label: "stretch"}
	correct := stats.Series{Label: "correct fraction"}
	probes, err := w.run(func(t, _ float64) error {
		// Routing stretch and correctness over a fresh random workload.
		alive, right := ring.O.AliveSlots(), 0
		stretch.Add(t/60000, w.e.stretch(ring.O, count, func(int) (int, int, float64, bool) {
			src := alive[lr.Intn(len(alive))]
			key := chord.RandomKey(lr)
			res, err := ring.Lookup(src, key, nil)
			if err == nil && res.Owner == ring.Owner(key) {
				right++
			}
			return src, res.Owner, res.Latency, err == nil
		}))
		correct.Add(t/60000, float64(right)/float64(count))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []stats.Series{probes, stretch, correct}, nil
}

package experiment

import (
	"fmt"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gnutella"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// env bundles one trial's physical world: a generated transit-stub network,
// its latency oracle, and the trial RNG.
type env struct {
	net    *netsim.Network
	oracle *netsim.Oracle
	r      *rng.Rand
}

// newEnv generates the physical substrate for one trial.
func newEnv(preset netsim.Config, seed uint64) (*env, error) {
	r := rng.New(seed)
	net, err := netsim.Generate(preset, r)
	if err != nil {
		return nil, err
	}
	return &env{net: net, oracle: netsim.NewOracle(net), r: r}, nil
}

// gnutellaWorld is the world most rows start from: the trial's ts-large
// network, its oracle counting queries under prefix when prefix is set and
// the metrics layer on, and a Gnutella overlay of 1000 peers (scaled,
// at least 100).
func (c *trialCtx) gnutellaWorld(prefix string) (*env, *overlay.Overlay, error) {
	e, err := newEnv(netsim.TSLarge(), c.world)
	if err != nil {
		return nil, nil, err
	}
	if prefix != "" {
		e.instrumentOracle(c.tr, prefix)
	}
	o, err := e.buildGnutella(scaled(1000, c.Scale, 100))
	return e, o, err
}

// buildGnutella constructs an n-peer unstructured overlay on this network.
func (e *env) buildGnutella(n int) (*overlay.Overlay, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiment: overlay size %d too small", n)
	}
	return gnutella.Build(e.net.PickHosts(n, e.r), gnutella.DefaultConfig(), e.oracle.Latency, e.r)
}

// buildChord constructs an n-node Chord ring, optionally with PNS fingers.
func (e *env) buildChord(n int, pns bool) (*chord.Ring, error) {
	cfg := chord.DefaultConfig()
	cfg.PNS = pns
	return chord.Build(e.net.PickHosts(n, e.r), cfg, e.oracle.Latency, e.r)
}

// buildCAN constructs an n-node CAN, optionally with PIS landmark binning.
// PIS uses three landmarks drawn from distinct transit domains.
func (e *env) buildCAN(n int, pis bool) (*can.Space, error) {
	cfg := can.Config{}
	if pis {
		cfg.Landmarks = e.pickLandmarks(3)
	}
	return can.Build(e.net.PickHosts(n, e.r), cfg, e.oracle.Latency, e.r)
}

// pickLandmarks returns k transit routers spread across domains: the
// first router of each domain in id order, padded with the remaining
// transit routers when there are fewer domains than k.
func (e *env) pickLandmarks(k int) []int {
	var lms, rest []int
	seen := map[int]bool{}
	for id, tier := range e.net.Tiers {
		if tier != netsim.TierTransit {
			continue
		}
		if d := e.net.Domain[id]; !seen[d] && len(lms) < k {
			seen[d] = true
			lms = append(lms, id)
		} else {
			rest = append(rest, id)
		}
	}
	return append(lms, rest[:min(k-len(lms), len(rest))]...)
}

// meanPhysLink returns the stretch denominator for this network.
func (e *env) meanPhysLink() float64 { return e.net.MeanLinkLatency() }

// stretch is the mean ratio of routed lookup latency to direct
// source→owner latency over count lookups — the standard DHT stretch (cf.
// Gummadi et al.), which is what makes Fig. 6's 2.5–4.5 range
// reproducible. route routes the i-th lookup and reports its source slot
// and result; failed lookups are skipped, and so are lookups whose owner is
// the source (ratio undefined).
func (e *env) stretch(o *overlay.Overlay, count int, route func(i int) (src int, res overlay.LookupResult, err error)) float64 {
	sum, n := 0.0, 0
	for i := 0; i < count; i++ {
		src, res, err := route(i)
		if err != nil || res.Owner == src {
			continue
		}
		direct := e.oracle.Latency(o.HostOf(src), o.HostOf(res.Owner))
		if direct <= 0 {
			continue
		}
		sum += res.Latency / direct
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// drawnStretch is stretch over count lookups drawn as they go, from
// uniformly random live sources, each routed by route (which draws its key
// from r).
func (e *env) drawnStretch(o *overlay.Overlay, count int, route func(src int, r *rng.Rand) (overlay.LookupResult, error)) float64 {
	r := e.r.Split()
	slots := o.AliveSlots()
	return e.stretch(o, count, func(int) (int, overlay.LookupResult, error) {
		src := slots[r.Intn(len(slots))]
		res, err := route(src, r)
		return src, res, err
	})
}

// optimize starts p (when non-nil) and then each of start on eng, and runs
// the engine to horizon, calling sample (when non-nil) at t = 0, step,
// 2·step, …. Running to the horizon in steps executes the identical event
// sequence as one run, so an unsampled run passes step = horizon.
func optimize(eng *event.Engine, p *core.Protocol, horizon, step float64, sample func(t float64) error, start ...func(*event.Engine)) error {
	if p != nil {
		p.Start(eng)
	}
	for _, s := range start {
		s(eng)
	}
	for t := 0.0; t <= horizon; t += step {
		eng.RunUntil(event.Time(t))
		if sample != nil {
			if err := sample(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// runPROP builds PROP with cfg over o and optimizes it, unsampled, to
// horizon.
func runPROP(o *overlay.Overlay, cfg core.Config, r *rng.Rand, horizon float64) (*core.Protocol, error) {
	p, err := core.New(o, cfg, r)
	if err != nil {
		return nil, err
	}
	return p, optimize(event.New(), p, horizon, horizon, nil)
}

package experiment

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Experiment time structure shared by the Fig. 5/6 time-series panels:
// the paper plots metrics "varied according to time" over the optimization
// run; we sample every 2 simulated minutes for 30 minutes (warm-up is
// MAX_INIT_TRIAL = 10 one-minute probes, so the horizon covers warm-up and
// the start of maintenance).
const (
	horizonMS = 30 * 60000
	stepMS    = 2 * 60000
)

// paperLookups is the per-sample lookup count ("the average lookup latency
// derived from 1,000 lookup operations").
const paperLookups = 1000

// curve is one line of a Fig. 5/6 panel: n peers on preset, PROP-G with
// nhops-hop probing (0 = random probing).
type curve struct {
	label  string
	n      int
	nhops  int
	preset netsim.Config
}

// The three questions Fig. 5 and Fig. 6 both ask — TTL, system size,
// physical topology — as curve lists shared by the two substrates.
var (
	ttlCurves = []curve{
		{"n=1000, nhops=1", 1000, 1, netsim.TSLarge()},
		{"n=1000, nhops=2", 1000, 2, netsim.TSLarge()},
		{"n=1000, nhops=4", 1000, 4, netsim.TSLarge()},
		{"n=1000, random", 1000, 0, netsim.TSLarge()},
	}
	// ts-large has ~2400 stub hosts; the paper's largest size uses "almost
	// all physical nodes", so the sweep tops out at the full host set.
	sizeCurves = []curve{
		{"n=300, nhops=2", 300, 2, netsim.TSLarge()},
		{"n=500, nhops=2", 500, 2, netsim.TSLarge()},
		{"n=1000, nhops=2", 1000, 2, netsim.TSLarge()},
		{"n=2400, nhops=2", 2400, 2, netsim.TSLarge()},
	}
	topologyCurves = []curve{
		{"ts-large", 1000, 2, netsim.TSLarge()},
		{"ts-small", 1000, 2, netsim.TSSmall()},
	}
)

// substrate is what a Fig. 5/6 panel measures. build makes the n-peer
// overlay on e and returns it with the panel's metric over a fixed workload
// of count lookups, plus the substrate's own invariants for the auditor.
type substrate struct {
	metric string // the metric's name in the metrics stream
	build  func(e *env, n, count int) (*overlay.Overlay, func() float64, []audit.Invariant, error)
}

// gnutellaLatency is Fig. 5's substrate: mean flooding lookup latency.
var gnutellaLatency = substrate{"lookup_latency_ms", func(e *env, n, count int) (*overlay.Overlay, func() float64, []audit.Invariant, error) {
	o, err := e.buildGnutella(n)
	if err != nil {
		return nil, nil, nil, err
	}
	lookups, err := workload.Uniform(o.AliveSlots(), count, e.r.Split())
	return o, func() float64 {
		mean, _ := metrics.MeanLookupLatency(lookups, metrics.FloodEval(o, nil))
		return mean
	}, nil, err
}}

// chordStretch is Fig. 6's substrate: routing stretch of a fixed set of
// slot-addressed lookups.
var chordStretch = substrate{"stretch", func(e *env, n, count int) (*overlay.Overlay, func() float64, []audit.Invariant, error) {
	ring, err := e.buildChord(n, false)
	if err != nil {
		return nil, nil, nil, err
	}
	return ring.O, e.chordWorkload(ring, count), []audit.Invariant{audit.Check("chord-wellformed", ring.CheckInvariants)}, nil
}}

// chordWorkload draws count slot-addressed lookups of ring from a split of
// the trial RNG and returns their stretch measurement.
func (e *env) chordWorkload(ring *chord.Ring, count int) func() float64 {
	r := e.r.Split()
	slots := ring.O.AliveSlots()
	src, keys := make([]int, count), make([]uint32, count)
	for i := range src {
		src[i] = slots[r.Intn(len(slots))]
		keys[i] = chord.RandomKey(r)
	}
	return func() float64 {
		return e.stretch(ring.O, count, func(i int) (int, int, float64, bool) {
			res, err := ring.Lookup(src[i], keys[i], nil)
			return src[i], res.Owner, res.Latency, err == nil
		})
	}
}

// timeSeries is the trial of a Fig. 5/6 panel: every curve runs PROP-G on
// sub and samples its metric every stepMS. The curves of a trial share the
// world seed, so curves that differ only in protocol parameters start from
// the identical world and overlay, as in the paper's figures, while the
// protocol gets a per-curve stream.
func timeSeries(sub substrate, curves []curve) func(*trialCtx) ([]stats.Series, error) {
	return func(c *trialCtx) ([]stats.Series, error) {
		out := make([]stats.Series, len(curves))
		for i, cv := range curves {
			s, err := c.curveRun(sub, cv, c.subSeed(1000, i))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cv.label, err)
			}
			out[i] = s
		}
		return out, nil
	}
}

// curveRun simulates one curve. The world seed fixes the network, overlay
// and workload; runSeed drives only the protocol (and the AL sketch).
func (c *trialCtx) curveRun(sub substrate, cv curve, runSeed uint64) (stats.Series, error) {
	tr, prefix := c.tr, cv.label+"/"
	sp := tr.StartSpan(prefix+"gen-network", 0)
	e, err := newEnv(cv.preset, c.world)
	if err != nil {
		return stats.Series{}, err
	}
	e.instrumentOracle(tr, prefix)
	sp.End(0)
	sp = tr.StartSpan(prefix+"build-overlay", 0)
	o, metric, invariants, err := sub.build(e, scaled(cv.n, c.Scale, 50), scaled(paperLookups, c.Scale, 100))
	if err != nil {
		return stats.Series{}, err
	}
	al, err := newALProbe(c.ALMode, o, runSeed)
	if err != nil {
		return stats.Series{}, err
	}
	sp.End(0)

	cfg := core.DefaultConfig(core.PROPG)
	cfg.NHops, cfg.RandomProbe = cv.nhops, cv.nhops == 0
	p, err := core.New(o, cfg, rng.New(runSeed))
	if err != nil {
		return stats.Series{}, err
	}
	eng := event.New()
	var a *audit.Auditor
	if c.Audit {
		a = newRunAuditor(o, p, eng, invariants...)
	}
	hookExchangeTrace(tr, prefix, p)
	sp = tr.StartSpan(prefix+"simulate", 0)
	series := stats.Series{Label: cv.label}
	err = optimize(eng, p, horizonMS, stepMS, func(t float64) error {
		v := metric()
		series.Add(t/60000, v)
		if err := al.measure(tr, prefix, t); err != nil {
			return err
		}
		if tr != nil {
			tr.Series(prefix+sub.metric).Sample(t, v)
			sampleProtocol(tr, prefix, t, p, o)
		}
		return nil
	})
	if err != nil {
		return stats.Series{}, err
	}
	sp.End(horizonMS)
	recordCounterTotals(tr, prefix+"prop.", p.Counters)
	if a != nil {
		// The final full invariant check; a violation fails the run.
		a.CheckNow()
		if err := a.Err(); err != nil {
			return stats.Series{}, fmt.Errorf("audit %s: %w", cv.label, err)
		}
		c.audits = append(c.audits, cv.label+": "+a.Summary())
	}
	return series, nil
}

// newRunAuditor attaches the online invariant auditor to one simulated run:
// overlay bijection/connectivity and PROP-G topology freezing are registered,
// the engine's clock/FIFO invariants are hooked, and the protocol's probe and
// exchange hooks feed the auditor's sampled event stream (every event under
// -tags auditstrict). Existing Trace/Probe hooks are chained, not replaced.
func newRunAuditor(o *overlay.Overlay, p *core.Protocol, eng *event.Engine, extra ...audit.Invariant) *audit.Auditor {
	a := audit.New(audit.DefaultInterval, 0)
	a.Register(
		audit.OverlayBijection(o),
		audit.OverlayConnected(o),
		audit.TopologyFrozen(o),
	)
	a.Register(extra...)
	a.AttachEngine(eng)

	prevTrace := p.Trace
	p.Trace = func(ev core.ExchangeEvent) {
		if prevTrace != nil {
			prevTrace(ev)
		}
		a.Observe(audit.Record{
			At: float64(ev.At), Kind: audit.KindExchange,
			A: ev.U, B: ev.V, Aux: []int{ev.Moved}, Val: ev.Var,
		})
	}
	prevProbe := p.Probe
	p.Probe = func(ev core.ProbeEvent) {
		if prevProbe != nil {
			prevProbe(ev)
		}
		v := 0.0
		if ev.Exchanged {
			v = 1
		}
		a.Observe(audit.Record{
			At: float64(ev.At), Kind: audit.KindProbe,
			A: ev.U, B: ev.Partner, Val: v,
		})
	}
	return a
}

package experiment

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

// chordLookup is one fixed query of the stretch workload.
type chordLookup struct {
	src int
	key uint32
}

// makeChordWorkload draws a fixed set of lookups for stretch sampling.
func makeChordWorkload(ring *chord.Ring, count int, r *rng.Rand) []chordLookup {
	slots := ring.O.AliveSlots()
	out := make([]chordLookup, count)
	for i := range out {
		out[i] = chordLookup{src: slots[r.Intn(len(slots))], key: chord.RandomKey(r)}
	}
	return out
}

// routingStretch returns the mean ratio of routed lookup latency to direct
// source→owner latency — the standard DHT stretch (cf. Gummadi et al.),
// which is what makes Fig. 6's 2.5–4.5 range reproducible. Lookups whose
// owner is the source are skipped (ratio undefined).
func routingStretch(ring *chord.Ring, e *env, lookups []chordLookup) float64 {
	sum, n := 0.0, 0
	for _, l := range lookups {
		res, err := ring.Lookup(l.src, l.key, nil)
		if err != nil || res.Owner == l.src {
			continue
		}
		direct := e.oracle.Latency(ring.O.HostOf(l.src), ring.O.HostOf(res.Owner))
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

// chordVariant is one curve of a Fig. 6 panel.
type chordVariant struct {
	label  string
	n      int
	nhops  int
	random bool
	preset netsim.Config
}

// runChordSeries produces the stretch-vs-time curve of each variant,
// averaged over opt.Trials. When opt.Audit is set it also returns one
// audit-summary note per trial.
func runChordSeries(opt Options, variants []chordVariant) ([]stats.Series, []string, error) {
	alog := newAuditLog(opt.Audit)
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		tr := opt.Metrics.Trial(trial)
		out := make([]stats.Series, len(variants))
		for vi, v := range variants {
			// Shared environment seed per trial: identically parameterized
			// variants start from the identical ring (see fig5.go).
			s, summary, err := oneChordRun(opt, v, tr,
				trialSeed(opt.Seed, trial), trialSeed(opt.Seed, 1000+trial*100+vi))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v.label, err)
			}
			alog.add(trial, summary)
			out[vi] = s
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return mergeTrials(perTrial), alog.notes(opt.Trials), nil
}

// oneChordRun simulates PROP-G over a Chord ring and samples routing
// stretch. envSeed fixes the world, ring, and workload; runSeed drives the
// protocol. The returned string is the audit summary ("" unless opt.Audit).
func oneChordRun(opt Options, v chordVariant, tr *obs.Trial, envSeed, runSeed uint64) (stats.Series, string, error) {
	prefix := v.label + "/"
	spGen := tr.StartSpan(prefix+"gen-network", 0)
	e, err := newEnv(v.preset, envSeed)
	if err != nil {
		return stats.Series{}, "", err
	}
	e.instrumentOracle(tr, prefix)
	spGen.End(0)
	spBuild := tr.StartSpan(prefix+"build-overlay", 0)
	n := scaled(v.n, opt.Scale, 50)
	ring, err := e.buildChord(n, false)
	if err != nil {
		return stats.Series{}, "", err
	}
	spBuild.End(0)

	cfg := core.DefaultConfig(core.PROPG)
	cfg.NHops = v.nhops
	cfg.RandomProbe = v.random
	if v.random {
		cfg.NHops = 0
	}
	p, err := core.New(ring.O, cfg, rng.New(runSeed))
	if err != nil {
		return stats.Series{}, "", err
	}
	eng := event.New()
	var a *audit.Auditor
	if opt.Audit {
		a = newRunAuditor(ring.O, p, eng,
			audit.Check("chord-wellformed", ring.CheckInvariants))
	}
	hookExchangeTrace(tr, prefix, p)
	p.Start(eng)

	lookups := makeChordWorkload(ring, scaled(paperLookups, opt.Scale, 100), e.r.Split())
	spSim := tr.StartSpan(prefix+"simulate", 0)
	series := stats.Series{Label: v.label}
	for t := 0.0; t <= horizonMS; t += stepMS {
		eng.RunUntil(event.Time(t))
		stretch := routingStretch(ring, e, lookups)
		series.Add(t/60000, stretch)
		if tr != nil {
			tr.Series(prefix+"stretch").Sample(t, stretch)
			sampleProtocol(tr, prefix, t, p, ring.O)
		}
	}
	spSim.End(horizonMS)
	recordCounterTotals(tr, prefix+"prop.", p.Counters)
	summary, err := finishAudit(a, v.label)
	if err != nil {
		return stats.Series{}, "", err
	}
	return series, summary, nil
}

func runFig6a(opt Options) (*Result, error) {
	n := 1000
	variants := []chordVariant{
		{label: "n=1000, nhops=1", n: n, nhops: 1, preset: netsim.TSLarge()},
		{label: "n=1000, nhops=2", n: n, nhops: 2, preset: netsim.TSLarge()},
		{label: "n=1000, nhops=4", n: n, nhops: 4, preset: netsim.TSLarge()},
		{label: "n=1000, random", n: n, random: true, preset: netsim.TSLarge()},
	}
	series, auditNotes, err := runChordSeries(opt, variants)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig6a",
		Title:  "Effectiveness of PROP-G in Chord environment, varying the TTL scale",
		XLabel: "time (min)",
		YLabel: "stretch",
		Series: series,
		Notes: append([]string{
			"expected shape: nhops=1 reduces stretch least; nhops∈{2,4} ≈ random",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		}, auditNotes...),
	}, nil
}

func runFig6b(opt Options) (*Result, error) {
	sizes := []int{300, 500, 1000, 2400}
	variants := make([]chordVariant, len(sizes))
	for i, n := range sizes {
		variants[i] = chordVariant{
			label:  fmt.Sprintf("n=%d, nhops=2", n),
			n:      n,
			nhops:  2,
			preset: netsim.TSLarge(),
		}
	}
	series, auditNotes, err := runChordSeries(opt, variants)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig6b",
		Title:  "Effectiveness of PROP-G in Chord environment, varying the system size",
		XLabel: "time (min)",
		YLabel: "stretch",
		Series: series,
		Notes: append([]string{
			"expected shape: larger systems improve relatively less",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		}, auditNotes...),
	}, nil
}

func runFig6c(opt Options) (*Result, error) {
	variants := []chordVariant{
		{label: "ts-large", n: 1000, nhops: 2, preset: netsim.TSLarge()},
		{label: "ts-small", n: 1000, nhops: 2, preset: netsim.TSSmall()},
	}
	series, auditNotes, err := runChordSeries(opt, variants)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig6c",
		Title:  "Effectiveness of PROP-G in Chord environment, varying the physical topology",
		XLabel: "time (min)",
		YLabel: "stretch",
		Series: series,
		Notes: append([]string{
			"expected shape: ts-large improves more than ts-small",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		}, auditNotes...),
	}, nil
}

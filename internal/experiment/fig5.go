package experiment

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
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

// gnutellaVariant is one curve of a Fig. 5 panel.
type gnutellaVariant struct {
	label  string
	n      int
	nhops  int
	random bool
	preset netsim.Config
}

// runGnutellaSeries produces the lookup-latency-vs-time curve of each
// variant, averaged over opt.Trials. When opt.Audit is set it also returns
// one audit-summary note per trial.
func runGnutellaSeries(opt Options, variants []gnutellaVariant) ([]stats.Series, []string, error) {
	alog := newAuditLog(opt.Audit)
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		tr := opt.Metrics.Trial(trial)
		out := make([]stats.Series, len(variants))
		for vi, v := range variants {
			// The environment seed is shared across a trial's variants:
			// panels that differ only in protocol parameters then start
			// from the identical world and overlay, as in the paper's
			// figures, while the protocol itself gets a per-variant stream.
			s, summary, err := oneGnutellaRun(opt, v, tr,
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
	notes := alog.notes(opt.Trials)
	if opt.ALMode != ALModeOff {
		notes = append(notes, fmt.Sprintf("al-mode=%s: eq. (3) AL series recorded as <variant>/al_ms in the metrics stream", opt.ALMode))
	}
	return mergeTrials(perTrial), notes, nil
}

// oneGnutellaRun simulates one variant and samples the average lookup
// latency over time. envSeed determines the physical world, overlay, and
// workload; runSeed drives only the protocol's randomness. The returned
// string is the audit summary ("" unless opt.Audit).
func oneGnutellaRun(opt Options, v gnutellaVariant, tr *obs.Trial, envSeed, runSeed uint64) (stats.Series, string, error) {
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
	o, err := e.buildGnutella(n)
	if err != nil {
		return stats.Series{}, "", err
	}
	nLookups := scaled(paperLookups, opt.Scale, 100)
	lookups, err := workload.Uniform(o.AliveSlots(), nLookups, e.r.Split())
	if err != nil {
		return stats.Series{}, "", err
	}
	al, err := newALProbe(opt, o, runSeed)
	if err != nil {
		return stats.Series{}, "", err
	}
	defer al.close()
	spBuild.End(0)

	cfg := core.DefaultConfig(core.PROPG)
	cfg.NHops = v.nhops
	cfg.RandomProbe = v.random
	if v.random {
		cfg.NHops = 0
	}
	p, err := core.New(o, cfg, rng.New(runSeed))
	if err != nil {
		return stats.Series{}, "", err
	}
	eng := event.New()
	var a *audit.Auditor
	if opt.Audit {
		a = newRunAuditor(o, p, eng)
	}
	hookExchangeTrace(tr, prefix, p)
	p.Start(eng)

	spSim := tr.StartSpan(prefix+"simulate", 0)
	series := stats.Series{Label: v.label}
	for t := 0.0; t <= horizonMS; t += stepMS {
		eng.RunUntil(event.Time(t))
		mean, _ := metrics.MeanLookupLatency(lookups, metrics.FloodEval(o, nil))
		series.Add(t/60000, mean)
		if _, err := al.measure(tr, prefix, t); err != nil {
			return stats.Series{}, "", err
		}
		if tr != nil {
			tr.Series(prefix+"lookup_latency_ms").Sample(t, mean)
			sampleProtocol(tr, prefix, t, p, o)
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

func runFig5a(opt Options) (*Result, error) {
	n := 1000
	variants := []gnutellaVariant{
		{label: "n=1000, nhops=1", n: n, nhops: 1, preset: netsim.TSLarge()},
		{label: "n=1000, nhops=2", n: n, nhops: 2, preset: netsim.TSLarge()},
		{label: "n=1000, nhops=4", n: n, nhops: 4, preset: netsim.TSLarge()},
		{label: "n=1000, random", n: n, random: true, preset: netsim.TSLarge()},
	}
	series, auditNotes, err := runGnutellaSeries(opt, variants)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig5a",
		Title:  "Effectiveness of PROP-G in Gnutella-like environment, varying the TTL scale",
		XLabel: "time (min)",
		YLabel: "average lookup latency (ms)",
		Series: series,
		Notes: append([]string{
			"expected shape: nhops=1 improves least; nhops∈{2,4} and random nearly coincide",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		}, auditNotes...),
	}, nil
}

func runFig5b(opt Options) (*Result, error) {
	// ts-large has ~2400 stub hosts; the paper's largest size uses "almost
	// all physical nodes", so the sweep tops out at the full host set.
	sizes := []int{300, 500, 1000, 2400}
	variants := make([]gnutellaVariant, len(sizes))
	for i, n := range sizes {
		variants[i] = gnutellaVariant{
			label:  fmt.Sprintf("n=%d, nhops=2", n),
			n:      n,
			nhops:  2,
			preset: netsim.TSLarge(),
		}
	}
	series, auditNotes, err := runGnutellaSeries(opt, variants)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig5b",
		Title:  "Effectiveness of PROP-G in Gnutella-like environment, varying the system size",
		XLabel: "time (min)",
		YLabel: "average lookup latency (ms)",
		Series: series,
		Notes: append([]string{
			"expected shape: relative improvement shrinks slightly as n grows",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		}, auditNotes...),
	}, nil
}

func runFig5c(opt Options) (*Result, error) {
	variants := []gnutellaVariant{
		{label: "ts-large", n: 1000, nhops: 2, preset: netsim.TSLarge()},
		{label: "ts-small", n: 1000, nhops: 2, preset: netsim.TSSmall()},
	}
	series, auditNotes, err := runGnutellaSeries(opt, variants)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig5c",
		Title:  "Effectiveness of PROP-G in Gnutella-like environment, varying the physical topology",
		XLabel: "time (min)",
		YLabel: "average lookup latency (ms)",
		Series: series,
		Notes: append([]string{
			"expected shape: ts-large (Internet-like backbone) improves more than ts-small",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		}, auditNotes...),
	}, nil
}

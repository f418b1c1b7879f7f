package experiment

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/hetero"
	"repro/internal/ltm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fig7Fractions is the x axis: the fraction of lookups destined for fast
// machines.
var fig7Fractions = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// fig7HorizonMS is the optimization time before the Fig. 7 measurement.
// It is shorter than the Fig. 5/6 horizon: LTM converges within a few
// detector rounds while PROP is still in its warm-up, which is exactly the
// regime the paper measures (LTM ahead at x=0, and the PROP-O exchange
// size m still mattering — given unlimited time even m=1 converges).
const fig7HorizonMS = 15 * 60000

// fig7SampleStepMS is the metric-sampling cadence of the optimization
// phase; sampling only happens when instrumentation is on.
const fig7SampleStepMS = 60000

// fig7Optimizer runs one policy over the overlay to fig7HorizonMS,
// recording its loop activity into tr (nil = instrumentation off) under
// prefix.
type fig7Optimizer func(o *overlay.Overlay, r *rng.Rand, tr *obs.Trial, prefix string) error

// fig7Policies are the curves of Fig. 7.
var fig7Policies = []struct {
	label    string
	optimize fig7Optimizer
}{
	{"PROP-O (m=1)", propPolicy(core.PROPO, 1)},
	{"PROP-O (m=2)", propPolicy(core.PROPO, 2)},
	{"PROP-O (m=4)", propPolicy(core.PROPO, 4)},
	{"PROP-G", propPolicy(core.PROPG, 0)},
	{"LTM", ltmPolicy},
}

func propPolicy(policy core.Policy, m int) fig7Optimizer {
	return func(o *overlay.Overlay, r *rng.Rand, tr *obs.Trial, prefix string) error {
		cfg := core.DefaultConfig(policy)
		cfg.M = m
		p, err := core.New(o, cfg, r)
		if err != nil {
			return err
		}
		hookExchangeTrace(tr, prefix, p)
		sp := tr.StartSpan(prefix+"optimize", 0)
		if err := optimize(event.New(), p, fig7HorizonMS, fig7SampleStepMS, func(t float64) error {
			sampleProtocol(tr, prefix, t, p, o)
			return nil
		}); err != nil {
			return err
		}
		sp.End(fig7HorizonMS)
		recordCounterTotals(tr, prefix+"prop.", p.Counters)
		return nil
	}
}

func ltmPolicy(o *overlay.Overlay, r *rng.Rand, tr *obs.Trial, prefix string) error {
	p := ltm.New(o, r)
	sp := tr.StartSpan(prefix+"optimize", 0)
	if err := optimize(event.New(), nil, fig7HorizonMS, fig7SampleStepMS, func(t float64) error {
		sampleMessageCounters(tr, prefix+"ltm.", t, p.Counters)
		sampleOverlayStats(tr, prefix, t, o)
		return nil
	}, p.Start); err != nil {
		return err
	}
	sp.End(fig7HorizonMS)
	recordCounterTotals(tr, prefix+"ltm.", p.Counters)
	return nil
}

// fig7Trial reproduces the bimodal-processing-delay comparison. For every
// policy the optimized overlay is evaluated against the same host-level
// workload; the reported value is the ratio of the policy's average lookup
// delay to the unoptimized overlay's (the paper likewise reports "a
// normalized value instead of real lookup delay").
func fig7Trial(c *trialCtx) ([]stats.Series, error) {
	e, base, err := c.gnutellaWorld("fig7/")
	if err != nil {
		return nil, err
	}
	// Speed belongs to the host, so one model serves every policy's clone.
	model := hetero.AssignByDegree(base)
	fastHosts, allHosts := model.FastHosts, base.Hosts()
	slowHosts := slices.DeleteFunc(slices.Clone(allHosts), func(h int) bool { return slices.Contains(fastHosts, h) })

	// Host-level workloads, one per fraction, shared by every policy so the
	// curves are directly comparable; the baseline is the unoptimized
	// overlay's delay at each fraction.
	nLookups := scaled(paperLookups, c.Scale, 100)
	wr := e.r.Split()
	hostLookups := make([][]workload.Lookup, len(fig7Fractions))
	baseline := make([]float64, len(fig7Fractions))
	for i, frac := range fig7Fractions {
		if hostLookups[i], err = workload.Skewed(allHosts, fastHosts, slowHosts, frac, nLookups, wr); err != nil {
			return nil, err
		}
		if baseline[i] = evalHostWorkload(base, model, hostLookups[i]); baseline[i] <= 0 {
			return nil, fmt.Errorf("fig7: degenerate baseline %v at fraction %v", baseline[i], frac)
		}
	}

	out := make([]stats.Series, len(fig7Policies))
	for pi, pol := range fig7Policies {
		oc := base.Clone()
		if err := pol.optimize(oc, e.r.Split(), c.tr, pol.label+"/"); err != nil {
			return nil, fmt.Errorf("%s: %w", pol.label, err)
		}
		out[pi] = stats.Series{Label: pol.label}
		for i, frac := range fig7Fractions {
			out[pi].Add(frac, evalHostWorkload(oc, model, hostLookups[i])/baseline[i])
		}
	}
	return out, nil
}

// evalHostWorkload maps a host-level workload onto the overlay's current
// slot assignment and returns the mean flooding lookup delay including
// processing delays.
func evalHostWorkload(o *overlay.Overlay, model *hetero.Model, hostLookups []workload.Lookup) float64 {
	slotLookups := make([]workload.Lookup, 0, len(hostLookups))
	for _, hl := range hostLookups {
		src, dst := o.SlotOfHost(hl.Src), o.SlotOfHost(hl.Dst)
		if src < 0 || dst < 0 || src == dst {
			continue
		}
		slotLookups = append(slotLookups, workload.Lookup{Src: src, Dst: dst})
	}
	mean, _ := metrics.MeanLookupLatency(slotLookups, metrics.FloodEval(o, model.DelayByHost))
	return mean
}

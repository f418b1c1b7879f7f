package experiment

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/overlay"
)

// This file is the experiment harness's hookup into the observability layer
// (internal/obs, DESIGN.md §8). Every helper is a no-op on a nil *obs.Trial,
// so call sites read identically whether -metrics is on or off.
//
// Metric name convention: "<variant label>/<subsystem>.<quantity>". The
// variant label is the same string the figure's series carries, so a JSONL
// consumer can join the metrics stream against the rendered result.

// instrumentOracle attaches cache-activity counters to this environment's
// latency oracle under the given name prefix.
func (e *env) instrumentOracle(tr *obs.Trial, prefix string) {
	if tr == nil {
		return
	}
	e.oracle.SetInstruments(
		tr.Counter(prefix+"oracle.queries"),
		tr.Counter(prefix+"oracle.hits"),
		tr.Counter(prefix+"oracle.computes"),
		nil, // bench-contract shim parameter, see netsim.Oracle.SetInstruments
	)
}

// sampleProtocol snapshots the protocol's deterministic run state into
// sim-clock time series at one measurement tick: the §4.3 message counters,
// the Markov back-off state, and the overlay's accept/reject tallies.
func sampleProtocol(tr *obs.Trial, prefix string, tMS float64, p *core.Protocol, o *overlay.Overlay) {
	if tr == nil {
		return
	}
	sampleMessageCounters(tr, prefix+"prop.", tMS, p.Counters)
	bs := p.BackoffSnapshot()
	tr.Series(prefix+"backoff.mean_factor").Sample(tMS, bs.MeanFactor())
	tr.Series(prefix+"backoff.backed_off").Sample(tMS, float64(bs.BackedOff))
	tr.Series(prefix+"backoff.at_max").Sample(tMS, float64(bs.AtMax))
	sampleOverlayStats(tr, prefix, tMS, o)
}

// sampleMessageCounters writes one tick of a metrics.Counters snapshot
// (PROP or LTM alike) as cumulative series.
func sampleMessageCounters(tr *obs.Trial, prefix string, tMS float64, c metrics.Counters) {
	if tr == nil {
		return
	}
	tr.Series(prefix+"probes").Sample(tMS, float64(c.Probes))
	tr.Series(prefix+"exchanges").Sample(tMS, float64(c.Exchanges))
	tr.Series(prefix+"rejected").Sample(tMS, float64(c.Rejected))
	tr.Series(prefix+"messages").Sample(tMS, float64(c.Messages()))
	tr.Series(prefix+"walk_failures").Sample(tMS, float64(c.WalkFailures))
}

// sampleOverlayStats writes one tick of the overlay's mutation tallies.
func sampleOverlayStats(tr *obs.Trial, prefix string, tMS float64, o *overlay.Overlay) {
	if tr == nil {
		return
	}
	s := o.Stats
	tr.Series(prefix+"overlay.swaps").Sample(tMS, float64(s.Swaps))
	tr.Series(prefix+"overlay.neighbor_exchanges").Sample(tMS, float64(s.NeighborExchanges))
	tr.Series(prefix+"overlay.edges_rewired").Sample(tMS, float64(s.EdgesRewired))
	tr.Series(prefix+"overlay.rejected").Sample(tMS, float64(s.SwapsRejected+s.ExchangesRejected))
}

// recordCounterTotals stores end-of-run totals of a metrics.Counters as obs
// counters, so a consumer that only wants aggregates need not walk series.
func recordCounterTotals(tr *obs.Trial, prefix string, c metrics.Counters) {
	if tr == nil {
		return
	}
	tr.Counter(prefix + "probes").Add(c.Probes)
	tr.Counter(prefix + "walk_messages").Add(c.WalkMessages)
	tr.Counter(prefix + "measure_messages").Add(c.MeasureMessages)
	tr.Counter(prefix + "notify_messages").Add(c.NotifyMessages)
	tr.Counter(prefix + "exchanges").Add(c.Exchanges)
	tr.Counter(prefix + "rejected").Add(c.Rejected)
	tr.Counter(prefix + "walk_failures").Add(c.WalkFailures)
}

// hookExchangeTrace chains a histogram observer onto the protocol's Trace
// hook so every executed exchange records its Var gain and moved-neighbor
// count. The Trace hook runs on the single-threaded engine, keeping the
// histogram deterministic. Chain before or after other Trace consumers
// (auditor, livesim) — all of them chain rather than replace.
func hookExchangeTrace(tr *obs.Trial, prefix string, p *core.Protocol) {
	if tr == nil {
		return
	}
	varHist := tr.Histogram(prefix+"prop.exchange_var_ms", obs.DefaultLatencyBuckets)
	movedHist := tr.Histogram(prefix+"prop.exchange_moved", []float64{1, 2, 4, 8, 16, 32, 64})
	prev := p.Trace
	p.Trace = func(ev core.ExchangeEvent) {
		varHist.Observe(ev.Var)
		movedHist.Observe(float64(ev.Moved))
		if prev != nil {
			prev(ev)
		}
	}
}

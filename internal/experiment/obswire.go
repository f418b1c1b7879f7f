package experiment

import (
	"repro/internal/core"
	"repro/internal/faults"
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

// instrumentOracle attaches a point-query counter to this environment's
// latency oracle under the given name prefix.
func (e *env) instrumentOracle(tr *obs.Trial, prefix string) {
	if tr == nil {
		return
	}
	e.oracle.SetInstruments(tr.Counter(prefix+"oracle.queries"), nil, nil, nil)
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
	p.Trace = func(ev core.CycleEvent) {
		if ev.Reason == core.Exchanged {
			varHist.Observe(ev.Var)
			movedHist.Observe(float64(ev.Moved))
		}
		if prev != nil {
			prev(ev)
		}
	}
}

// faultCounts names the protocol's fault-handling counters — timeouts,
// retries, liveness evictions, duplicate drops, and absorbed stale timers.
// Only the figR* rows record them: the fault-free rows' streams must not
// gain, or even conditionally skip, these series. (The stream sorts by
// name, so map order never shows.)
func faultCounts(c metrics.Counters) map[string]uint64 {
	return map[string]uint64{"faults.timeouts": c.Timeouts, "faults.retries": c.Retries,
		"faults.evictions": c.Evictions, "faults.dups_dropped": c.DupsDropped, "faults.stale_timers": c.StaleTimers}
}

// sampleFaultCounters writes one tick of faultCounts as cumulative
// sim-clock series.
func sampleFaultCounters(tr *obs.Trial, prefix string, tMS float64, c metrics.Counters) {
	if tr == nil {
		return
	}
	for name, v := range faultCounts(c) {
		tr.Series(prefix+name).Sample(tMS, float64(v))
	}
}

// recordFaultTotals stores the end-of-run fault manifest: faultCounts plus
// what the injector actually did to the traffic (messages seen, losses,
// duplicates and partition drops). A nil trial records
// nothing; a nil injector, only the protocol's totals.
func recordFaultTotals(tr *obs.Trial, prefix string, c metrics.Counters, inj *faults.Injector) {
	if tr == nil {
		return
	}
	totals := faultCounts(c)
	if inj.Enabled() {
		s := inj.Stats()
		totals["faults.injected_messages"], totals["faults.injected_lost"], totals["faults.injected_dups"] = s.Messages, s.Lost, s.Dups
		totals["faults.partition_drops"] = s.PartitionDrops
	}
	for name, v := range totals {
		tr.Counter(prefix + name).Add(v)
	}
}

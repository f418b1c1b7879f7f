package main

// spec.go is the metric table: every name, unit, direction and bound the
// driver emits. BENCHMARK.json repeats it for the acceptance driver, and
// TestBenchmarkJSONMatchesDriver keeps the two identical.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the seven metrics a user of the system sees, on every
// workload. Bound is the share of the parent's median by which a later PR may
// worsen the metric. The acceptance driver takes one bound per metric, judges
// it on runs of ten different seeds, and wants the quartile spread of those
// runs well inside it, so each bound is sized to the noisiest workload on the
// shared 2-core reference box (README.md, "Bounds" has the measured spreads):
// the timings to gnutella-flood, whose cache-bound floods swing ±12 % with
// the neighbours' memory traffic; alloc_mb and success_share to the
// goroutine runtime; quality_ratio to the world-to-world variation of one
// Chord ring.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"run_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"alloc_mb", "MB", lower, 0.10},
	{"live_heap_mb", "MB", lower, 0.05},
	{"quality_ratio", "ratio", lower, 0.10},
	{"success_share", "ratio", higher, 0.03},
}

// perLayer are the traced pass's numbers. A metric that does not apply to a
// workload (transport.* on a simulator) reads 0 there.
var perLayer = []metricSpec{
	{Name: "graph.freeze_ms", Unit: "ms", Better: lower},
	{Name: "graph.sssp_us", Unit: "us", Better: lower},
	{Name: "graph.sssp_allocs", Unit: "count", Better: lower},

	{Name: "netsim.generate_s", Unit: "s", Better: lower},
	{Name: "netsim.precompute_s", Unit: "s", Better: lower},
	{Name: "netsim.cold_row_us", Unit: "us", Better: lower},
	{Name: "netsim.oracle_queries", Unit: "count", Better: lower},
	{Name: "netsim.oracle_query_ns", Unit: "ns", Better: lower},
	{Name: "netsim.oracle_busy_est_s", Unit: "s", Better: lower},
	{Name: "netsim.oracle_computes", Unit: "count", Better: lower},
	{Name: "netsim.oracle_hit_share", Unit: "ratio", Better: higher},

	{Name: "overlay.flood_calls", Unit: "count", Better: lower},
	{Name: "overlay.flood_busy_s", Unit: "s", Better: lower},
	{Name: "overlay.flood_us", Unit: "us", Better: lower},
	{Name: "overlay.flood_p99_us", Unit: "us", Better: lower},
	{Name: "overlay.swaps", Unit: "count", Better: higher},

	{Name: "gnutella.build_s", Unit: "s", Better: lower},
	{Name: "chord.build_s", Unit: "s", Better: lower},
	{Name: "chord.lookups", Unit: "count", Better: higher},
	{Name: "chord.lookup_us", Unit: "us", Better: lower},
	{Name: "chord.lookup_busy_s", Unit: "s", Better: lower},
	{Name: "chord.mean_hops", Unit: "count", Better: lower},

	{Name: "core.run_busy_s", Unit: "s", Better: lower},
	{Name: "core.probes", Unit: "count", Better: higher},
	{Name: "core.exchanges", Unit: "count", Better: higher},
	{Name: "core.exchange_yield", Unit: "ratio", Better: higher},
	{Name: "core.us_per_probe", Unit: "us", Better: lower},
	{Name: "core.msgs_per_exchange", Unit: "count", Better: lower},
	{Name: "core.timeouts", Unit: "count", Better: lower},
	{Name: "core.retries", Unit: "count", Better: lower},

	{Name: "event.steps", Unit: "count", Better: lower},
	{Name: "event.steps_per_s", Unit: "1/s", Better: higher},
	{Name: "event.pushpop_ns", Unit: "ns", Better: lower},

	{Name: "faults.delivered", Unit: "count", Better: higher},
	{Name: "faults.lost", Unit: "count", Better: lower},
	{Name: "faults.dups", Unit: "count", Better: lower},

	{Name: "metrics.lookup_eval_s", Unit: "s", Better: lower},
	{Name: "metrics.al_estimate_s", Unit: "s", Better: lower},
	{Name: "metrics.al_stderr_ms", Unit: "ms", Better: lower},

	{Name: "shard.build_s", Unit: "s", Better: lower},
	{Name: "shard.run_busy_s", Unit: "s", Better: lower},
	{Name: "shard.epochs", Unit: "count", Better: lower},
	{Name: "shard.messages", Unit: "count", Better: lower},
	{Name: "shard.msgs_per_s", Unit: "1/s", Better: higher},
	{Name: "shard.cross_shard_share", Unit: "ratio", Better: lower},
	{Name: "shard.exchange_yield", Unit: "ratio", Better: higher},
	{Name: "shard.lost", Unit: "count", Better: lower},
	{Name: "shard.probe_timeouts", Unit: "count", Better: lower},
	{Name: "shard.commit_timeouts", Unit: "count", Better: lower},
	{Name: "shard.evictions", Unit: "count", Better: lower},
	{Name: "shard.parallel_eff", Unit: "ratio", Better: higher},
	{Name: "shard.flood_us", Unit: "us", Better: lower},
	{Name: "shard.bytes_per_peer", Unit: "B", Better: lower},

	{Name: "transport.sent", Unit: "count", Better: lower},
	{Name: "transport.delivered", Unit: "count", Better: higher},
	{Name: "transport.overflows", Unit: "count", Better: lower},
	{Name: "transport.send_busy_s", Unit: "s", Better: lower},
	{Name: "transport.codec_ns", Unit: "ns", Better: lower},
	{Name: "transport.codec_allocs", Unit: "count", Better: lower},
	{Name: "transport.call_us", Unit: "us", Better: lower},
	{Name: "transport.call_allocs", Unit: "count", Better: lower},

	{Name: "propnode.start_s", Unit: "s", Better: lower},
	{Name: "propnode.stop_s", Unit: "s", Better: lower},
	{Name: "propnode.probes", Unit: "count", Better: higher},
	{Name: "propnode.exchanges", Unit: "count", Better: higher},
	{Name: "propnode.exchange_yield", Unit: "ratio", Better: higher},
	{Name: "propnode.walk_failures", Unit: "count", Better: lower},
	{Name: "propnode.measure_failures", Unit: "count", Better: lower},
	{Name: "propnode.heartbeats", Unit: "count", Better: lower},
	{Name: "propnode.cpu_us_per_probe", Unit: "us", Better: lower},
	{Name: "propnode.alloc_kb_per_probe", Unit: "KB", Better: lower},
	{Name: "propnode.msgs_per_probe", Unit: "count", Better: lower},

	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
}

// layerMetrics reads every per-layer metric out of a traced pass's counts;
// what a workload never set reads 0.
func layerMetrics(tr *tracer) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = tr.get(m.Name)
	}
	return out
}

package main

import (
	"runtime"
	"time"
)

// Batch probes: seams too hot to time call by call in-run are counted there
// and costed here, after the run, by N calls on the workload's own state.

// timeBatch runs f n times and returns the per-call durations in the unit
// given by per (time.Microsecond → µs).
func timeBatch(n int, per time.Duration, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := time.Now()
		f(i)
		out[i] = float64(time.Since(t)) / float64(per)
	}
	return out
}

// mallocs returns the allocation count of f.
func mallocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// probeGraph costs the graph kernels every world build pays: a CSR freeze and
// one Dijkstra row, over 64 fixed sources of the world's physical graph.
func probeGraph(tr *tracer, g *Graph) {
	var fz *Frozen
	ms := timeBatch(8, time.Millisecond, func(int) { fz = g.Freeze() })
	n := fz.NumVertices()
	dist := make([]float64, n)
	const sources = 64
	src := func(i int) int { return i * n / sources }
	fz.ShortestPathsInto(src(0), dist) // warm the kernel's scratch pool
	us := timeBatch(sources, time.Microsecond, func(i int) { fz.ShortestPathsInto(src(i), dist) })
	allocs := mallocs(func() {
		for i := 0; i < sources; i++ {
			fz.ShortestPathsInto(src(i), dist)
		}
	})
	tr.set("graph.freeze_ms", median(ms))
	tr.set("graph.sssp_us", median(us))
	tr.set("graph.sssp_allocs", allocs/sources)
}

// probeOracle costs the oracle: a cold row on a fresh oracle over the same
// network, and a warm point query between attachment hosts (timed in batches
// of 1000: one call is below the clock's resolution).
func probeOracle(tr *tracer, pw *physWorld) {
	tr.set("netsim.generate_s", tr.sum("netsim.generate"))
	tr.set("netsim.precompute_s", tr.sum("netsim.precompute"))

	cold := NewOracleWith(pw.net, OracleOptions{})
	const rows = 64
	us := timeBatch(rows, time.Microsecond, func(i int) { cold.Row(pw.hosts[i*len(pw.hosts)/rows]) })
	tr.set("netsim.cold_row_us", median(us))

	const batch, batches = 1000, 1000
	r := NewRand(1)
	pairs := make([][2]int, batch)
	for i := range pairs {
		pairs[i] = [2]int{pw.hosts[r.Intn(len(pw.hosts))], pw.hosts[r.Intn(len(pw.hosts))]}
	}
	sink := 0.0
	ns := timeBatch(batches, time.Nanosecond, func(int) {
		for _, p := range pairs {
			sink += pw.oracle.Latency(p[0], p[1])
		}
	})
	runtime.KeepAlive(sink)
	tr.set("netsim.oracle_query_ns", median(ns)/batch)
}

// oracleCounts sums the traced worlds' counts: queries seen by either seam,
// and rows computed after the warm-up.
func oracleCounts(worlds []*physWorld) (queries, computes float64) {
	for _, w := range worlds {
		queries += float64(w.counted())
		computes += float64(w.computes.Value())
	}
	return queries, computes
}

// oracleLayers records the oracle's run-phase counts and the busy estimate
// count × probe cost. counted queries were seen by a seam; extra
// is a workload's extrapolated share (gnutella-flood's parallel floods). It
// returns the estimate for the counted queries alone.
func oracleLayers(tr *tracer, counted, extra, computes float64) (countedS float64) {
	queries := counted + extra
	cost := tr.get("netsim.oracle_query_ns") / 1e9
	tr.set("netsim.oracle_queries", queries)
	tr.set("netsim.oracle_computes", computes)
	tr.set("netsim.oracle_hit_share", 1-ratio(computes, queries))
	tr.set("netsim.oracle_busy_est_s", queries*cost)
	return counted * cost
}

// probeEvent costs one schedule+dispatch on a fresh engine holding a
// thousand pending timers, 10⁶ times.
func probeEvent(tr *tracer) {
	eng := NewSimEngine()
	noop := func(*SimEngine) {}
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		eng.At(SimTime(r.Float64()*1000), noop)
	}
	const n = 1_000_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		eng.At(eng.Now()+SimTime(r.Float64()*1000), noop)
		eng.Step()
	}
	tr.set("event.pushpop_ns", float64(time.Since(t0))/n)
}

// coreLayers derives the core and event counts of a sequential-engine
// workload from the summed protocol counters. oracleS is the estimated time
// the protocol phase spent inside oracle queries, which the core.run spans
// contain and core.run_busy_s therefore excludes.
func coreLayers(tr *tracer, c CoreCounters, steps uint64, oracleS float64) {
	spans := tr.sum("core.run")
	busy := spans - oracleS
	tr.set("core.run_busy_s", busy)
	tr.set("core.probes", float64(c.Probes))
	tr.set("core.exchanges", float64(c.Exchanges))
	tr.set("core.exchange_yield", ratio(float64(c.Exchanges), float64(c.Probes)))
	tr.set("core.us_per_probe", ratio(busy*1e6, float64(c.Probes)))
	tr.set("core.msgs_per_exchange", ratio(float64(c.Messages()), float64(c.Exchanges)))
	tr.set("core.timeouts", float64(c.Timeouts))
	tr.set("core.retries", float64(c.Retries))
	tr.set("event.steps", float64(steps))
	tr.set("event.steps_per_s", ratio(float64(steps), spans))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

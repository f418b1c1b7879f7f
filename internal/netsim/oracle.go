package netsim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
)

// oracleInstr holds the observability hookup of one oracle (DESIGN.md §8).
// The pointer-to-struct indirection keeps the disabled path down to one
// predictable nil check on the Latency fast path.
type oracleInstr struct {
	// queries counts Latency point queries.
	queries *obs.Counter
	// hits counts point queries answered from an already-cached row.
	// Scheduling-dependent under concurrent warm-up (whichever row lands
	// first serves the symmetric pair), so it is excluded from the
	// byte-determinism contract; queries and computes are deterministic.
	hits *obs.Counter
	// computes counts Dijkstra row computations (cold misses).
	computes *obs.Counter
}

// OracleOptions is empty: the oracle has one mode. Bench-contract shim —
// bench/surface.go spells the name; drop it with NewOracleWith in the next
// benchmark-only PR (ROADMAP).
type OracleOptions struct{}

// Oracle answers "what is the latency between physical nodes u and v?" — the
// question every PROP probe, every lookup, and every metric sample asks.
// In the authors' simulator a probe packet traverses the generated topology;
// here the equivalent is the shortest-path distance in the physical graph.
//
// The oracle is an immutable snapshot: it holds the CSR view of the physical
// graph as it stood at construction, and later mutations of net.Graph change
// none of its answers (the underlay is static in every experiment; a caller
// that does rewire it builds a new oracle). Distances are computed lazily,
// one Dijkstra per source, and cached for the oracle's lifetime. The cache is
// safe for concurrent use: parallel trial runners and the parallel metric
// evaluators all share one Oracle per network. Rows are published through
// atomic pointers, so reads are lock-free; the per-row sync.Once makes each
// Dijkstra run at most once under contention. A row is stored in 2 bytes an
// entry when its distances are whole milliseconds (see oracleRow).
type Oracle struct {
	fz    *graph.Frozen
	instr *oracleInstr // nil unless SetInstruments was called

	rows    []atomic.Pointer[oracleRow]
	once    []sync.Once  // one Dijkstra per row
	cached  atomic.Int64 // materialized row count, O(1) CachedRows
	scratch sync.Pool    // *[]float64 of length NumNodes: Dijkstra output before encoding
}

// infMS is the compact-row code for +Inf (unreachable). Finite compact
// entries are whole milliseconds below it.
const infMS = math.MaxUint16

// oracleRow is one source's distance row in one of two forms, chosen by its
// own values (DESIGN.md §7 "One-mode latency oracle"): ms when every entry
// survives the uint16 round trip bit for bit, f otherwise. Exactly one of
// the two is non-nil, so every answer is the Dijkstra output's exact bits.
type oracleRow struct {
	ms []uint16
	f  []float64
}

// newOracleRow encodes a Dijkstra row. An entry is compact when it is +Inf
// or a finite value below infMS whose bits equal those of its uint16
// conversion back to float64; NaN, negatives, −0, fractions and values ≥
// infMS fail the test, and one failure keeps the whole row in float64.
func newOracleRow(d []float64) *oracleRow {
	ms := make([]uint16, len(d))
	for i, x := range d {
		switch {
		case math.IsInf(x, 1):
			ms[i] = infMS
		case x >= 0 && x < infMS && math.Float64bits(float64(uint16(x))) == math.Float64bits(x):
			ms[i] = uint16(x)
		default:
			return &oracleRow{f: append([]float64(nil), d...)}
		}
	}
	return &oracleRow{ms: ms}
}

// at returns the distance to v.
func (r *oracleRow) at(v int) float64 {
	if r.ms != nil {
		if c := r.ms[v]; c != infMS {
			return float64(c)
		}
		return math.Inf(1)
	}
	return r.f[v]
}

// precomputeSlots is a process-wide cap on extra Precompute workers so that
// concurrent Precompute calls — e.g. one per experiment trial — compose
// without spawning GOMAXPROCS² goroutines. Each call always makes progress
// on its own goroutine even when no slot is free.
var precomputeSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// NewOracle builds a latency oracle over a snapshot of the physical graph
// of net.
func NewOracle(net *Network) *Oracle {
	fz := net.Graph.Frozen()
	n := fz.NumVertices()
	o := &Oracle{
		fz:   fz,
		rows: make([]atomic.Pointer[oracleRow], n),
		once: make([]sync.Once, n),
	}
	o.scratch.New = func() any { d := make([]float64, n); return &d }
	return o
}

// NewOracleWith is NewOracle. Bench-contract shim — bench/world.go and
// bench/probes.go call it; drop it with OracleOptions in the next
// benchmark-only PR (ROADMAP).
func NewOracleWith(net *Network, _ OracleOptions) *Oracle { return NewOracle(net) }

// NumNodes reports the number of physical nodes the oracle covers.
func (o *Oracle) NumNodes() int { return len(o.rows) }

// SetInstruments attaches obs counters for cache activity: point queries,
// cached-row hits and Dijkstra row computations. Any counter may be nil
// (obs counters are nil-safe); calling with all nils — or never calling —
// keeps the hot path at a single nil check. Attach before sharing the
// oracle across goroutines: the field itself is not synchronized.
//
// The fourth parameter is a bench-contract shim: rows are never evicted, so
// the counter is accepted and never incremented. bench/world.go passes four
// arguments; drop the parameter in the next benchmark-only PR (ROADMAP).
func (o *Oracle) SetInstruments(queries, hits, computes, _ *obs.Counter) {
	next := oracleInstr{queries: queries, hits: hits, computes: computes}
	if next == (oracleInstr{}) {
		o.instr = nil
		return
	}
	o.instr = &next
}

// Latency returns the physical shortest-path latency from u to v in
// milliseconds. It panics if either endpoint is out of range (the caller
// owns node IDs; an out-of-range ID is a programming error, not an
// environmental condition).
func (o *Oracle) Latency(u, v int) float64 {
	n := len(o.rows)
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("netsim: latency query (%d,%d) out of range [0,%d)", u, v, n))
	}
	if o.instr != nil {
		o.instr.queries.Add(1)
	}
	if u == v {
		return 0
	}
	// Prefer an already-computed row in either direction: distances are
	// symmetric in an undirected graph.
	if p := o.rows[u].Load(); p != nil {
		o.hit()
		return p.at(v)
	}
	if p := o.rows[v].Load(); p != nil {
		o.hit()
		return p.at(u)
	}
	// Neither direction is cached: warm the lower-indexed endpoint, so the
	// symmetric query later reuses this row instead of running a second
	// Dijkstra into the other endpoint's slot.
	if u > v {
		u, v = v, u
	}
	return o.row(u).at(v)
}

// Row returns the full distance vector from src, computing the cached row
// on first use. The slice is decoded afresh on every call and the caller
// owns it; its entries are bit-identical to Latency(src, ·).
func (o *Oracle) Row(src int) []float64 {
	n := len(o.rows)
	if src < 0 || src >= n {
		panic(fmt.Sprintf("netsim: row query %d out of range [0,%d)", src, n))
	}
	r := o.row(src)
	d := make([]float64, n)
	for v := range d {
		d[v] = r.at(v)
	}
	return d
}

// hit records a cached-row answer when instrumented.
func (o *Oracle) hit() {
	if o.instr != nil {
		o.instr.hits.Add(1)
	}
}

// row returns src's distance row, running its Dijkstra on the snapshot the
// first time into a pooled buffer and encoding it. The atomic load is the
// lock-free warm path; sync.Once serializes only concurrent first uses of
// the same row.
func (o *Oracle) row(src int) *oracleRow {
	if p := o.rows[src].Load(); p != nil {
		return p
	}
	o.once[src].Do(func() {
		if o.instr != nil {
			o.instr.computes.Add(1)
		}
		buf := o.scratch.Get().(*[]float64)
		o.fz.ShortestPathsInto(src, *buf)
		o.rows[src].Store(newOracleRow(*buf))
		o.scratch.Put(buf)
		o.cached.Add(1)
	})
	return o.rows[src].Load()
}

// Precompute warms the cache for the given sources. Experiments call this
// with the overlay's attachment hosts so the measurement phase is
// contention-free. All sources are validated before any work is enqueued: a
// bad source in the middle of the list panics without computing (or
// leaking) anything, so the cache is untouched rather than half-warmed.
//
// Parallelism: the calling goroutine always participates; up to
// GOMAXPROCS-1 extra workers are borrowed from a process-wide pool shared
// by all oracles, so concurrent Precompute calls (one per trial) never
// oversubscribe the CPUs.
func (o *Oracle) Precompute(sources []int) {
	n := len(o.rows)
	for _, s := range sources {
		if s < 0 || s >= n {
			panic(fmt.Sprintf("netsim: precompute source %d out of range [0,%d)", s, n))
		}
	}
	if len(sources) == 0 {
		return
	}
	ch := make(chan int, len(sources))
	for _, s := range sources {
		ch <- s
	}
	close(ch)
	var wg sync.WaitGroup
	extra := runtime.GOMAXPROCS(0) - 1
	if extra > len(sources)-1 {
		extra = len(sources) - 1
	}
acquire:
	for i := 0; i < extra; i++ {
		select {
		case precomputeSlots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-precomputeSlots
					wg.Done()
				}()
				for s := range ch {
					o.row(s)
				}
			}()
		default:
			break acquire // pool exhausted; the caller works alone
		}
	}
	for s := range ch {
		o.row(s)
	}
	wg.Wait()
}

// CachedRows reports how many source rows are materialized. It is O(1): an
// atomic counter bumped once per computed row.
func (o *Oracle) CachedRows() int {
	return int(o.cached.Load())
}

package netsim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
	// hits counts point queries answered without running a Dijkstra.
	// Scheduling-dependent under concurrent warm-up (whichever row lands
	// first serves the symmetric pair), so it is excluded from the
	// byte-determinism contract; queries and computes are deterministic.
	hits *obs.Counter
	// computes counts full-graph Dijkstra row computations (cold misses).
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
// that does rewire it builds a new oracle). A host of a pendant stub domain
// is answered through the router its domain hangs off (see Anchors), so the
// full-graph rows behind every answer are computed lazily, one Dijkstra per
// anchor, and cached for the oracle's lifetime. The cache is safe for
// concurrent use: parallel trial runners and the parallel metric evaluators
// all share one Oracle per network. Rows are published through atomic
// pointers, so reads are lock-free; the per-row sync.Once makes each
// Dijkstra run at most once under contention. A row is stored in 2 bytes an
// entry when its distances are whole milliseconds (see oracleRow).
type Oracle struct {
	fz    *graph.Frozen
	instr *oracleInstr // nil unless SetInstruments was called
	nodes []Anchor     // one per physical node, fixed at NewOracle
	intra []intraTable // one per pendant stub domain, fixed at NewOracle

	rows    []atomic.Pointer[oracleRow] // core rows; only anchors' are ever computed
	once    []sync.Once                 // one Dijkstra per row
	cached  atomic.Int64                // materialized row count, O(1) CachedRows
	scratch sync.Pool                   // *[]float64 of length V: Dijkstra output before encoding
}

// intraTable is one pendant domain's k×k distance table, row-major.
type intraTable struct {
	k int
	d *oracleRow
}

// infMS is the compact-row code for +Inf (unreachable). Finite compact
// entries are whole milliseconds below it.
const infMS = math.MaxUint16

// oracleRow is one source's distance row, or one pendant domain's table, in
// one of two forms chosen by its own values (DESIGN.md §7 "One-mode latency
// oracle"): ms when every entry survives the uint16 round trip bit for bit,
// f otherwise. Exactly one of the two is non-nil, so every answer is the
// Dijkstra output's exact bits.
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
// of net. Its hosts are anchored by Anchors only when the snapshot passes
// exactSums; otherwise every node is its own anchor.
func NewOracle(net *Network) *Oracle {
	fz := net.Graph.Frozen()
	n := fz.NumVertices()
	labels := net.StubDomain
	if !exactSums(fz) {
		labels = nil
	}
	nodes, members := Anchors(fz, labels)
	o := &Oracle{
		fz:    fz,
		nodes: nodes,
		intra: make([]intraTable, len(members)),
		rows:  make([]atomic.Pointer[oracleRow], n),
		once:  make([]sync.Once, n),
	}
	o.scratch.New = func() any { d := make([]float64, n); return &d }
	// Each pendant domain's table: one Dijkstra per host over the domain's
	// own links, which hold every shortest path between two of its hosts.
	var q graph.RadixQueue
	for p, ms := range members {
		k := len(ms)
		d := make([]float64, k*k)
		for i := range ms {
			domainPaths(fz, nodes, ms, int32(i), &q, d[i*k:(i+1)*k])
		}
		o.intra[p] = intraTable{k: k, d: newOracleRow(d)}
	}
	return o
}

// exactSums is the oracle's gate on anchoring: every weight is a whole number
// of milliseconds in [0, 2³¹) and V ≤ 2²¹, so every path sum is an integer
// below 2⁵², and no order of additions — an offset plus a router's row, or
// one Dijkstra's fold — can change a bit of it.
func exactSums(fz *graph.Frozen) bool {
	exact := fz.NumVertices() <= 1<<21
	for u := 0; exact && u < fz.NumVertices(); u++ {
		_, wt := fz.Row(u)
		for _, w := range wt {
			exact = exact && w >= 0 && w < 1<<31 && math.Float64bits(float64(int64(w))) == math.Float64bits(w)
		}
	}
	return exact
}

// Anchor places one physical node (see Anchors). A host of a pendant stub
// domain has Dom, that domain's index in Anchors' member lists, Idx, its own
// index in its domain's list, Router, the node its domain hangs off, and Off,
// its distance to Router. Any other node is its own Router at Off = +0, with
// Dom = Idx = −1.
type Anchor struct {
	Off              float64
	Router, Dom, Idx int32
}

// Anchors finds the pendant stub domains of fz under the stub-domain labels
// (Network.StubDomain; a label outside [0, V) marks no domain) and returns
// one Anchor per node and each pendant domain's members, ascending. A stub
// domain is pendant when exactly one edge leaves it and that edge's outer
// endpoint lies in no other single-exit domain. Its hosts hang off that
// endpoint — on a generated world, the transit router the uplink reaches —
// and a host's offset is its distance to the edge's inner end over the
// domain's own links plus the edge's weight (+Inf when those links do not
// reach it). The inner end is a cut vertex: every path from the host to a
// node outside the domain crosses the edge, so the offset plus the endpoint's
// distance to that node is the host's distance to it (DESIGN.md §7).
func Anchors(fz *graph.Frozen, labels []int) ([]Anchor, [][]int32) {
	n := fz.NumVertices()
	label := func(u int32) int {
		if int(u) < len(labels) && labels[u] >= 0 && labels[u] < n {
			return labels[u]
		}
		return -1
	}
	type exit struct {
		count, pend int // pend is 1 + the domain's index once placed
		in, out     int32
		w           float64
	}
	exits := make([]exit, n)
	nodes := make([]Anchor, n)
	for u := range nodes {
		nodes[u] = Anchor{Router: int32(u), Dom: -1, Idx: -1}
		d := label(int32(u))
		nbr, wt := fz.Row(u)
		for i, v := range nbr {
			if d >= 0 && label(v) != d {
				exits[d] = exit{count: exits[d].count + 1, in: int32(u), out: v, w: wt[i]}
			}
		}
	}
	var members [][]int32
	for u := range nodes {
		d := label(int32(u))
		if d < 0 || exits[d].count != 1 {
			continue
		}
		e := &exits[d]
		if od := label(e.out); od >= 0 && exits[od].count == 1 {
			continue // two domains hanging off each other
		}
		if e.pend == 0 {
			members = append(members, nil)
			e.pend = len(members)
		}
		p := e.pend - 1
		nodes[u].Dom, nodes[u].Idx = int32(p), int32(len(members[p]))
		members[p] = append(members[p], int32(u))
	}
	var q graph.RadixQueue
	for _, ms := range members {
		e := exits[label(ms[0])]
		dist := make([]float64, len(ms))
		domainPaths(fz, nodes, ms, nodes[e.in].Idx, &q, dist)
		for i, u := range ms {
			nodes[u].Router, nodes[u].Off = e.out, dist[i]+e.w
		}
	}
	return nodes, members
}

// domainPaths fills dist, indexed like ms, with the distances from ms[src]
// over the own links of the pendant domain whose members are ms.
func domainPaths(fz *graph.Frozen, nodes []Anchor, ms []int32, src int32, q *graph.RadixQueue, dist []float64) {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dom := nodes[ms[0]].Dom
	q.Reset()
	dist[src] = 0
	q.Push(src, 0)
	for i, ok := q.Pop(dist); ok; i, ok = q.Pop(dist) {
		nbr, wt := fz.Row(int(ms[i]))
		for j, v := range nbr {
			if t := nodes[v].Idx; nodes[v].Dom == dom && dist[i]+wt[j] < dist[t] {
				dist[t] = dist[i] + wt[j]
				q.Push(t, dist[t])
			}
		}
	}
}

// NewOracleWith is NewOracle. Bench-contract shim — bench/world.go and
// bench/probes.go call it; drop it with OracleOptions in the next
// benchmark-only PR (ROADMAP).
func NewOracleWith(net *Network, _ OracleOptions) *Oracle { return NewOracle(net) }

// SetInstruments attaches obs counters for cache activity: point queries,
// hits and Dijkstra row computations (see oracleInstr). Any counter may be nil
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
	a, b := &o.nodes[u], &o.nodes[v]
	if a.Dom >= 0 && a.Dom == b.Dom {
		o.hit()
		t := &o.intra[a.Dom]
		return t.d.at(int(a.Idx)*t.k + int(b.Idx))
	}
	return a.Off + o.core(int(a.Router), int(b.Router)) + b.Off
}

// core returns the full-graph distance between anchors x and y. It prefers
// an already-computed row in either direction — distances are symmetric in
// an undirected graph — and otherwise warms the lower-indexed anchor, so the
// mirrored query later reuses this row instead of running a second Dijkstra.
func (o *Oracle) core(x, y int) float64 {
	if x == y {
		o.hit()
		return 0
	}
	if p := o.rows[x].Load(); p != nil {
		o.hit()
		return p.at(y)
	}
	if p := o.rows[y].Load(); p != nil {
		o.hit()
		return p.at(x)
	}
	return o.row(min(x, y)).at(max(x, y))
}

// Row returns the full distance vector from src: it warms src's anchor row,
// then reads every entry through Latency(src, ·), so an instrumented oracle
// counts V queries per call. The slice is fresh and the caller owns it.
func (o *Oracle) Row(src int) []float64 {
	n := len(o.rows)
	if src < 0 || src >= n {
		panic(fmt.Sprintf("netsim: row query %d out of range [0,%d)", src, n))
	}
	o.row(int(o.nodes[src].Router))
	d := make([]float64, n)
	for v := range d {
		d[v] = o.Latency(src, v)
	}
	return d
}

// hit records an answer that ran no Dijkstra when instrumented.
func (o *Oracle) hit() {
	if o.instr != nil {
		o.instr.hits.Add(1)
	}
}

// row returns src's full-graph row, running its Dijkstra on the snapshot the
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

// Precompute warms the rows of the given sources' anchors, each once.
// Experiments call this with the overlay's attachment hosts so the
// measurement phase is contention-free. All sources are validated before any
// work is enqueued: a bad source in the middle of the list panics without
// computing (or leaking) anything, so the cache is untouched rather than
// half-warmed.
//
// Parallelism: the calling goroutine always participates; up to
// GOMAXPROCS-1 extra workers are borrowed from a process-wide pool shared
// by all oracles, so concurrent Precompute calls (one per trial) never
// oversubscribe the CPUs.
func (o *Oracle) Precompute(sources []int) {
	n := len(o.rows)
	anchors := make([]int, len(sources))
	for i, s := range sources {
		if s < 0 || s >= n {
			panic(fmt.Sprintf("netsim: precompute source %d out of range [0,%d)", s, n))
		}
		anchors[i] = int(o.nodes[s].Router)
	}
	slices.Sort(anchors)
	anchors = slices.Compact(anchors)
	if len(anchors) == 0 {
		return
	}
	ch := make(chan int, len(anchors))
	for _, a := range anchors {
		ch <- a
	}
	close(ch)
	var wg sync.WaitGroup
	extra := min(runtime.GOMAXPROCS(0)-1, len(anchors)-1)
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

// CachedRows reports how many anchor rows are materialized. It is O(1): an
// atomic counter bumped once per computed row.
func (o *Oracle) CachedRows() int {
	return int(o.cached.Load())
}

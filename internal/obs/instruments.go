package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// counterShards is the number of independent cells a Counter spreads its
// increments over. Power of two; eight 128-byte cells keep concurrent
// writers (the parallel metric evaluators hammering the oracle) off each
// other's cache lines without bloating the idle footprint.
const counterShards = 8

// counterCell is one padded counter shard. The padding keeps two cells out
// of one cache line (128 bytes covers the common 64B line plus adjacent-
// line prefetchers).
type counterCell struct {
	v atomic.Uint64
	_ [120]byte
}

// Counter is a monotonically increasing, lock-free sharded counter. Add is
// safe for concurrent use from any number of goroutines: each increment
// lands on a shard with processor affinity (a sync.Pool keeps the last
// shard a P used in its private slot, so steady-state increments touch an
// uncontended cache line and take no locks). Value sums the shards, which
// makes totals order-independent — the foundation of the determinism
// contract. All methods are no-ops on a nil receiver.
type Counter struct {
	name string

	shards [counterShards]counterCell
	// affinity caches a per-P shard pointer; next round-robins the shard
	// handed to a P that has none cached yet.
	affinity sync.Pool
	next     atomic.Uint32
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	cell, _ := c.affinity.Get().(*counterCell)
	if cell == nil {
		cell = &c.shards[c.next.Add(1)&(counterShards-1)]
	}
	cell.v.Add(n)
	c.affinity.Put(cell)
}

// Value returns the current total (0 when nil). The total is exact once
// writers have quiesced; a concurrent read observes some subset of
// in-flight increments.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// DefaultLatencyBuckets are histogram upper bounds suited to millisecond
// latencies and Var gains in this simulation (the transit-stub link scale
// puts interesting mass between 1 ms and a few seconds).
var DefaultLatencyBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// Histogram is a fixed-bucket histogram: counts[i] tallies observations
// v <= bounds[i], counts[len(bounds)] the overflow. Bucket counts use
// atomics and are safe for concurrent use; Sum is accumulated with a CAS
// loop, so under concurrent writers its floating-point rounding can depend
// on arrival order — the in-tree writers (protocol trace hooks on the
// single-threaded engine) never race, keeping emission deterministic. All
// methods are no-ops on a nil receiver.
type Histogram struct {
	name   string
	bounds []float64
	counts []atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{name: name, bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns the bucket upper bounds, per-bucket counts (the last
// entry is the overflow bucket), total count, and value sum. Nil-safe.
func (h *Histogram) Snapshot() (bounds []float64, counts []uint64, n uint64, sum float64) {
	if h == nil {
		return nil, nil, 0, 0
	}
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts, h.n.Load(), math.Float64frombits(h.sum.Load())
}

// TimeSeries is a sim-clock-stamped sequence of samples. It is written
// from the single-threaded event loop at measurement ticks — never from
// concurrent goroutines — which is what keeps sample order (and therefore
// the emitted stream) deterministic; it is not synchronized. All methods
// are no-ops on a nil receiver.
type TimeSeries struct {
	name string
	t    []float64 // sim time, ms
	v    []float64
}

// Sample appends one (sim time ms, value) point.
func (s *TimeSeries) Sample(simMS, v float64) {
	if s == nil {
		return
	}
	s.t = append(s.t, simMS)
	s.v = append(s.v, v)
}

// Points returns the sample slices (shared storage; do not mutate).
func (s *TimeSeries) Points() (simMS, v []float64) {
	if s == nil {
		return nil, nil
	}
	return s.t, s.v
}

// Span is one named phase of a trial: a sim-time interval plus a wall-time
// duration. Sim times come from the caller (the event engine's clock);
// wall time is always captured but only emitted when the registry has
// wall-clock emission enabled. Spans are recorded from the sequential
// trial body; End is not synchronized. All methods are no-ops on a nil
// receiver, so disabled call sites read naturally:
//
//	sp := tr.StartSpan("build-overlay", 0) // tr may be nil
//	...
//	sp.End(0)
type Span struct {
	name       string
	seq        int
	simStartMS float64
	simEndMS   float64
	wallStart  time.Time
	wallNS     int64
	done       bool
}

func newSpan(name string, seq int, simNowMS float64) *Span {
	return &Span{name: name, seq: seq, simStartMS: simNowMS, simEndMS: simNowMS, wallStart: time.Now()}
}

// End closes the span at the given sim time (ms). Calling End twice keeps
// the first closure.
func (s *Span) End(simNowMS float64) {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.simEndMS = simNowMS
	s.wallNS = time.Since(s.wallStart).Nanoseconds()
}

// WallMS reports the span's wall duration in milliseconds (0 when nil or
// still open).
func (s *Span) WallMS() float64 {
	if s == nil {
		return 0
	}
	return float64(s.wallNS) / 1e6
}

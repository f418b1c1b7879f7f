package metrics

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// This file is the sketch tier of the AL ladder (SCALING.md): exact
// AverageLatency is O(n·Dijkstra), ALTracker amortizes that under churn but
// still owns n rows, and both stop being affordable somewhere past n≈10⁴.
// ALEstimator estimates eq. (3) from k full source rows — O(k·Dijkstra) and
// O(n) memory — which is what the fig5a -scale sweep samples at 10⁵–10⁶.
//
// Why source rows and not landmark triangle bounds: the tempting landmark
// estimate estAL = mean over pairs of min_l(d(l,i)+d(l,j)) is an upper
// bound with ~2× bias on expander-like overlays (flood distances
// concentrate around their mean μ, so the bound degenerates to ≈2μ). A
// uniformly sampled source row, by contrast, gives an exactly unbiased
// estimate of eq. (3): AL is the mean over sources of the row mean, so the
// sample mean of k row means has expectation AL and standard error
// sd(row means)/√k. Landmark coordinates still earn their keep in
// internal/shard — as per-message latency estimates — just not here.

// FloodSource is the measurement plane ALEstimator and AverageLatencyFrom
// read: something that can flood from a slot and report first-arrival times
// to every slot. overlay.Overlay satisfies it via OverlayFloodSource; the
// sharded engine (internal/shard) implements it over its struct-of-arrays
// state. FloodInto must be safe for concurrent calls with distinct dist
// buffers — rows are computed in parallel.
type FloodSource interface {
	// NumSlots reports the slot-index space size; dist buffers passed to
	// FloodInto must have exactly this length.
	NumSlots() int
	// AliveSlots returns the live slot IDs in ascending order. The slice is
	// borrowed: callers must not mutate or retain it across calls.
	AliveSlots() []int
	// FloodInto writes the first-arrival latency from src to every slot
	// into dist (+Inf for unreachable or dead slots, 0 for src itself).
	FloodInto(src int, dist []float64)
}

// overlayFloodSource adapts overlay.Overlay + processing-delay model to the
// FloodSource seam.
type overlayFloodSource struct {
	o    *overlay.Overlay
	proc overlay.ProcDelayFunc
}

func (s overlayFloodSource) NumSlots() int     { return s.o.NumSlots() }
func (s overlayFloodSource) AliveSlots() []int { return s.o.AliveSlots() }
func (s overlayFloodSource) FloodInto(src int, dist []float64) {
	s.o.FloodLatenciesInto(src, s.proc, dist)
}

// OverlayFloodSource adapts an overlay (with an optional processing-delay
// model) to the FloodSource seam, so the estimator and the exact reference
// read the same flooding semantics as AverageLatency.
func OverlayFloodSource(o *overlay.Overlay, proc overlay.ProcDelayFunc) FloodSource {
	return overlayFloodSource{o: o, proc: proc}
}

// AverageLatencyFrom computes eq. (3) exactly over a FloodSource: one row
// per live slot, fanned out across GOMAXPROCS workers, each reusing one
// arrival buffer; row sums are written by index and reduced in slot order,
// so the result does not depend on scheduling. It is the one implementation
// behind AverageLatency and the reference the estimator's error is measured
// against. An unreachable live pair or an empty source is an error.
func AverageLatencyFrom(fs FloodSource) (float64, error) {
	slots := fs.AliveSlots()
	n := len(slots)
	if n == 0 {
		return 0, fmt.Errorf("metrics: AverageLatencyFrom of empty source")
	}
	rows := make([]float64, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	ch := make(chan int, n)
	for i := range slots {
		ch <- i
	}
	close(ch)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			dist := make([]float64, fs.NumSlots())
			for i := range ch {
				sum, bad := rowSum(fs, slots, slots[i], dist)
				if bad >= 0 {
					errs[i] = fmt.Errorf("metrics: pair (%d,%d) unreachable", slots[i], bad)
					continue
				}
				rows[i] = sum
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	sum := 0.0
	for _, v := range rows {
		sum += v
	}
	return sum / float64(n*n), nil
}

// rowSum floods from src and sums arrivals over the live slots (self
// contributes 0, matching eq. (3)). It returns the first unreachable live
// destination in bad, or -1 when the whole row is finite.
func rowSum(fs FloodSource, slots []int, src int, dist []float64) (sum float64, bad int) {
	fs.FloodInto(src, dist)
	for _, dst := range slots {
		if dst == src {
			continue
		}
		d := dist[dst]
		if math.IsInf(d, 1) {
			return 0, dst
		}
		sum += d
	}
	return sum, -1
}

// defaultALSources is the sketch width when ALEstimatorOptions.Sources is
// zero: 16 rows keep the fig-scale relative error under the documented
// bound (see TestALEstimatorErrorBound) while costing 16 Dijkstras
// regardless of n.
const defaultALSources = 16

// ALEstimatorOptions configures the sketch.
type ALEstimatorOptions struct {
	// Sources is the number of full rows sampled per Estimate call (k in
	// the O(k·Dijkstra) cost); 0 means defaultALSources. Larger k shrinks
	// the standard error as 1/√k.
	Sources int
}

// ALEstimate is one sketch of eq. (3).
type ALEstimate struct {
	// AL is the estimated average latency in milliseconds.
	AL float64
	// StdErr is the estimated standard error of AL (sample standard
	// deviation of the row means over √k); 0 when only one row was drawn
	// and 0 when every live slot was drawn — a census has no sampling
	// error, the estimate IS eq. (3) over the live slots.
	StdErr float64
	// Sources is the number of rows actually sampled (min(k, live slots)).
	Sources int
	// Unreachable counts live destinations skipped because a sampled source
	// could not reach them; they contribute 0 to the estimate, so a heavily
	// partitioned overlay biases it low rather than erroring mid-run.
	Unreachable int
}

// ALEstimator estimates average latency (eq. (3)) from k uniformly sampled
// source rows. The estimator is exactly unbiased: AL is the mean over live
// slots of the per-source row mean, and Estimate averages k such row means
// drawn without replacement. Each Estimate call redraws sources from the
// estimator's generator and recomputes their rows against the source's
// current state, so one estimator can track an evolving overlay across a
// whole run; buffers are reused between calls. Not safe for concurrent
// Estimate calls.
type ALEstimator struct {
	fs FloodSource
	k  int
	r  *rng.Rand
	// perm holds the partial Fisher-Yates scratch; rows/errs the per-call
	// fan-out results; bufs one dist buffer per worker.
	perm []int
	rows []float64
	bufs [][]float64
	unrc []int
}

// NewALEstimator builds an estimator over fs drawing opt.Sources rows per
// Estimate call from r. The generator is required: source sampling is part
// of the deterministic event stream, so the caller decides the seed.
func NewALEstimator(fs FloodSource, opt ALEstimatorOptions, r *rng.Rand) (*ALEstimator, error) {
	if fs == nil {
		return nil, fmt.Errorf("metrics: ALEstimator needs a FloodSource")
	}
	if r == nil {
		return nil, fmt.Errorf("metrics: ALEstimator needs a generator")
	}
	k := opt.Sources
	if k == 0 {
		k = defaultALSources
	}
	if k < 0 {
		return nil, fmt.Errorf("metrics: negative ALEstimator source count %d", k)
	}
	return &ALEstimator{fs: fs, k: k, r: r}, nil
}

// Estimate draws the sources and computes one sketch. Rows fan out over
// min(GOMAXPROCS, k) workers and reduce in draw order, so the result is a
// deterministic function of the generator state and the source's current
// topology. It errors only on an empty source.
func (e *ALEstimator) Estimate() (ALEstimate, error) {
	slots := e.fs.AliveSlots()
	n := len(slots)
	if n == 0 {
		return ALEstimate{}, fmt.Errorf("metrics: ALEstimator over empty source")
	}
	k := e.k
	if k > n {
		k = n
	}
	// Partial Fisher-Yates over a copy of the live slots: k draws without
	// replacement, consuming exactly k generator values.
	if cap(e.perm) < n {
		e.perm = make([]int, n)
	}
	perm := e.perm[:n]
	copy(perm, slots)
	for i := 0; i < k; i++ {
		j := i + e.r.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	srcs := perm[:k]

	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	if cap(e.rows) < k {
		e.rows = make([]float64, k)
		e.unrc = make([]int, k)
	}
	rows := e.rows[:k]
	unrc := e.unrc[:k]
	for len(e.bufs) < workers {
		e.bufs = append(e.bufs, make([]float64, e.fs.NumSlots()))
	}
	ch := make(chan int, k)
	for i := 0; i < k; i++ {
		ch <- i
	}
	close(ch)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(dist []float64) {
			defer wg.Done()
			if len(dist) < e.fs.NumSlots() {
				dist = make([]float64, e.fs.NumSlots())
			}
			for i := range ch {
				e.fs.FloodInto(srcs[i], dist)
				sum, skipped := 0.0, 0
				for _, dst := range slots {
					if dst == srcs[i] {
						continue
					}
					d := dist[dst]
					if math.IsInf(d, 1) {
						skipped++
						continue
					}
					sum += d
				}
				rows[i] = sum / float64(n) // row mean, self included as 0
				unrc[i] = skipped
			}
		}(e.bufs[w])
	}
	wg.Wait()

	est := ALEstimate{Sources: k}
	mean := 0.0
	for i := 0; i < k; i++ {
		mean += rows[i]
		est.Unreachable += unrc[i]
	}
	mean /= float64(k)
	est.AL = mean
	// k == n is a census: every live row was drawn without replacement, so
	// the estimate is exactly the mean of row means (eq. (3) over the live
	// slots, unreachable skips aside) and has zero sampling error. The
	// k == 1 draw keeps StdErr at 0 rather than NaN — one row gives no
	// variance information.
	if k > 1 && k < n {
		ss := 0.0
		for i := 0; i < k; i++ {
			d := rows[i] - mean
			ss += d * d
		}
		est.StdErr = math.Sqrt(ss/float64(k-1)) / math.Sqrt(float64(k))
	}
	return est, nil
}

// Package metrics computes the paper's evaluation quantities: average
// lookup latency over a workload (Figs. 5 and 7), stretch (Fig. 6), and
// the protocol message counters behind the §4.3 overhead analysis.
//
// Lookup evaluation fans out across goroutines — each lookup is independent
// — and writes results by index so that the final reduction is a
// deterministic sequential sum regardless of scheduling.
//
// Entry points: MeanLookupLatency, AverageLatencyFrom, and the Counters struct
// the protocols tally into. See DESIGN.md §2 for which experiment consumes
// which quantity.
package metrics

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/overlay"
	"repro/internal/workload"
)

// LatencyEval evaluates the latency of one lookup; implementations wrap
// Gnutella flooding or Chord/CAN routing.
type LatencyEval func(l workload.Lookup) float64

// lookupBlock is how many consecutive lookups a MeanLookupLatency worker
// claims at a time. One early-exit flood costs anywhere from a few slots to
// the whole overlay, so equal static shares leave a worker idle at the tail;
// 16 keeps the shared cursor to one atomic add per ~16 floods.
const lookupBlock = 16

// lookupResults recycles MeanLookupLatency's per-call result buffer: a figure
// evaluates the same workload at every measurement tick.
var lookupResults sync.Pool

// MeanLookupLatency evaluates every lookup with eval in parallel and
// returns the mean over finite results plus the count of failed
// (infinite/NaN) lookups. Workers claim blocks of lookups from a shared
// cursor, write results by index and the reduction is sequential, so the
// mean does not depend on GOMAXPROCS or scheduling.
func MeanLookupLatency(lookups []workload.Lookup, eval LatencyEval) (mean float64, failed int) {
	if len(lookups) == 0 {
		return 0, 0
	}
	buf, _ := lookupResults.Get().(*[]float64)
	if buf == nil || cap(*buf) < len(lookups) {
		b := make([]float64, len(lookups))
		buf = &b
	}
	defer lookupResults.Put(buf)
	results := (*buf)[:len(lookups)]
	workers := runtime.GOMAXPROCS(0)
	if blocks := (len(lookups) + lookupBlock - 1) / lookupBlock; workers > blocks {
		workers = blocks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				hi := int(next.Add(lookupBlock))
				lo := hi - lookupBlock
				if lo >= len(lookups) {
					return
				}
				if hi > len(lookups) {
					hi = len(lookups)
				}
				for i := lo; i < hi; i++ {
					results[i] = eval(lookups[i])
				}
			}
		}()
	}
	wg.Wait()
	sum, n := 0.0, 0
	for _, v := range results {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			failed++
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.Inf(1), failed
	}
	return sum / float64(n), failed
}

// FloodEval adapts an unstructured overlay to a LatencyEval using flooding
// first-arrival semantics, with delayByHost as overlay.FloodLatency reads it.
// A non-nil slice floods every lookup. A nil one evaluates through one
// overlay.FloodMemo, which floods again only the lookups an overlay mutation
// may have moved: keep one FloodEval per workload, not one per sample.
func FloodEval(o *overlay.Overlay, delayByHost []float64) LatencyEval {
	if delayByHost != nil {
		return func(l workload.Lookup) float64 {
			return o.FloodLatency(l.Src, l.Dst, delayByHost)
		}
	}
	m := overlay.NewFloodMemo(o)
	return func(l workload.Lookup) float64 {
		return m.Latency(l.Src, l.Dst)
	}
}

// Counters tallies protocol activity for the overhead analysis (§4.3).
// One Counters value belongs to one single-threaded simulation engine, so
// plain integers suffice.
type Counters struct {
	// Probes is the number of probe cycles started (one per timer firing).
	Probes uint64
	// WalkMessages is the number of random-walk forwarding messages
	// (nhops per successful walk).
	WalkMessages uint64
	// MeasureMessages is the number of latency measurements to hypothetical
	// neighbors (the 2c of PROP-G, the 2m of PROP-O): one per neighbor entry
	// an evaluation moves, its after-leg. A peer remembers its RTT to each
	// current neighbor, so once its neighborQ entries are warm core.Protocol
	// delivers about this many; a cold or stale entry costs one more.
	MeasureMessages uint64
	// NotifyMessages is the number of neighbor-notification messages sent
	// after an executed exchange.
	NotifyMessages uint64
	// Exchanges is the number of executed peer-exchanges.
	Exchanges uint64
	// Rejected is the number of probe cycles that ended with core.Reason
	// NoTrade, BelowMinVar (Var <= MIN_VAR) or Refused (a refused commit or
	// a proposal whose retransmits ran out); propnode also counts
	// PartnerGone.
	Rejected uint64
	// WalkFailures is the number of random walks that got stuck early.
	WalkFailures uint64

	// The remaining counters exist only under fault injection
	// (internal/faults); they stay zero — and out of every fault-free metrics
	// stream — when no injector is attached.

	// Timeouts is the number of probe steps abandoned because a message was
	// lost and the retransmit timer fired.
	Timeouts uint64
	// Retries is the number of retransmissions sent after a timeout.
	Retries uint64
	// Evictions is the number of stale neighbor links dropped by liveness
	// eviction after a crashed peer stopped answering.
	Evictions uint64
	// DupsDropped is the number of duplicated protocol messages recognized
	// and discarded by their sequence guard.
	DupsDropped uint64
	// StaleTimers is the number of retransmit timers that fired after their
	// response had already arrived and were absorbed by the epoch guard.
	StaleTimers uint64
}

// Messages returns the total message count of the protocol so far.
func (c Counters) Messages() uint64 {
	return c.WalkMessages + c.MeasureMessages + c.NotifyMessages
}

// ProbeMessages returns the messages spent discovering and evaluating
// exchange opportunities (walk + latency measurement) — the quantity the
// paper's §4.3 model (nhop + 2c, nhop + 2m) counts. Notifications after an
// executed exchange are reconstruction cost, tallied separately.
func (c Counters) ProbeMessages() uint64 {
	return c.WalkMessages + c.MeasureMessages
}

// MessagesPerAdjustment returns the average probe-message cost of one
// adjustment step ("one step of adjustment" in §4.3), or 0 if none ran.
func (c Counters) MessagesPerAdjustment() float64 {
	if c.Probes == 0 {
		return 0
	}
	return float64(c.ProbeMessages()) / float64(c.Probes)
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Probes += other.Probes
	c.WalkMessages += other.WalkMessages
	c.MeasureMessages += other.MeasureMessages
	c.NotifyMessages += other.NotifyMessages
	c.Exchanges += other.Exchanges
	c.Rejected += other.Rejected
	c.WalkFailures += other.WalkFailures
	c.Timeouts += other.Timeouts
	c.Retries += other.Retries
	c.Evictions += other.Evictions
	c.DupsDropped += other.DupsDropped
	c.StaleTimers += other.StaleTimers
}

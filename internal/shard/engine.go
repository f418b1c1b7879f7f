package shard

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
)

// The epoch loop. Every window [t0, t1) satisfies t1 ≤ minAt + lookahead,
// where minAt is the earliest pending event anywhere: no event processed
// in the window can cause a cross-shard arrival before t1, so each shard
// drains its heap up to t1 in isolation, and the barrier afterwards moves
// mailbox messages (all stamped ≥ t1) into their destination heaps. Sample
// times are window boundaries, so a sample always observes the exact
// prefix of the event stream with arrival time < sample time — the same
// prefix for every shard count.

// alSeedSalt separates the AL-estimator's source-sampling stream from the
// world-generation stream derived from the same Config.Seed.
const alSeedSalt = 0x414c2d657374 // "AL-est"

// Run executes the simulation: initial probe timers (plus, under faults,
// the stateless crash schedule), the epoch loop with conservative-
// lookahead windows, per-sample metrics into tr (series
// prefix+"al_est_ms", "al_stderr_ms", "exchanges", "messages", plus
// "al_exact_ms" and "al_err_pct" under Config.ExactAL, plus the
// crash/churn event stream "crashed", "lost", "timeouts", "evictions"
// when any fault knob is set), a drain of in-flight work past the
// horizon, and final invariant checks (every live peer idle, live slot
// claims injective). A nil tr runs the protocol without sampling. An
// Engine is single-use; a second Run returns an error.
func (e *Engine) Run(tr *obs.Trial, prefix string) error {
	if e.ran {
		return errReRun
	}
	e.ran = true

	e.shards = make([]*shardRun, e.nShards)
	for i := range e.shards {
		e.shards[i] = &shardRun{id: int32(i), out: make([][]msg, e.nShards)}
	}
	for p := 0; p < e.n; p++ {
		sh := e.shards[e.shardOf(int32(p))]
		e.schedule(sh, int32(p), e.cfg.ProbeIntervalMS*u01(e.draw(int32(p))), kProbe)
		if e.faultsOn {
			// The crash schedule is a stateless per-peer hash, so this
			// loop plants byte-identical kCrash timers for every shard
			// count; the timer consumes an oseq only on the fault-on path.
			if at, ok := e.crashSchedule(int32(p)); ok {
				e.schedule(sh, int32(p), at, kCrash)
			}
		}
	}

	sampling := tr != nil
	var est *metrics.ALEstimator
	var sAL, sSE, sEx, sMsg, sExact, sErr *obs.TimeSeries
	var sCrash, sLost, sTO, sEvict *obs.TimeSeries
	if sampling {
		var err error
		est, err = metrics.NewALEstimator(e.fs, metrics.ALEstimatorOptions{Sources: e.cfg.ALSources}, rng.New(e.seed^alSeedSalt))
		if err != nil {
			return err
		}
		sAL = tr.Series(prefix + "al_est_ms")
		sSE = tr.Series(prefix + "al_stderr_ms")
		sEx = tr.Series(prefix + "exchanges")
		sMsg = tr.Series(prefix + "messages")
		if e.cfg.ExactAL {
			sExact = tr.Series(prefix + "al_exact_ms")
			sErr = tr.Series(prefix + "al_err_pct")
		}
		if e.faultsOn {
			// The crash/churn event stream: cumulative fault activity at
			// every sample. Registered only under faults, so fault-free
			// streams stay byte-identical to the pre-fault engine.
			sCrash = tr.Series(prefix + "crashed")
			sLost = tr.Series(prefix + "lost")
			sTO = tr.Series(prefix + "timeouts")
			sEvict = tr.Series(prefix + "evictions")
		}
	}

	horizon := e.cfg.HorizonMS
	step := e.cfg.SampleEveryMS
	t0, nextSample := 0.0, 0.0
	for {
		if sampling && nextSample <= horizon && t0 == nextSample {
			if err := e.sample(est, nextSample, sAL, sSE, sEx, sMsg, sExact, sErr, sCrash, sLost, sTO, sEvict); err != nil {
				return err
			}
			nextSample += step
		}
		minAt := math.Inf(1)
		for _, sh := range e.shards {
			if sh.heap.len() > 0 && sh.heap.min().at < minAt {
				minAt = sh.heap.min().at
			}
		}
		samplesLeft := sampling && nextSample <= horizon
		if math.IsInf(minAt, 1) {
			if !samplesLeft {
				break
			}
			t0 = nextSample // quiet stretch: jump straight to the sample
			continue
		}
		t1 := minAt + e.lookahead
		if samplesLeft && nextSample < t1 {
			t1 = nextSample
		}
		e.window(t1)
		t0 = t1
	}

	return e.checkInvariants()
}

// window processes, in parallel across shards, every pending event with
// arrival time strictly before t1, then exchanges the mailboxes. The
// lookahead argument guarantees no message generated inside the window
// lands before t1 (send panics otherwise), so the barrier is the only
// synchronization the epoch needs.
func (e *Engine) window(t1 float64) {
	if e.nShards == 1 {
		sh := e.shards[0]
		for sh.heap.len() > 0 && sh.heap.min().at < t1 {
			m := sh.heap.pop()
			e.handle(sh, &m)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(e.nShards)
		for _, sh := range e.shards {
			go func(sh *shardRun) {
				defer wg.Done()
				for sh.heap.len() > 0 && sh.heap.min().at < t1 {
					m := sh.heap.pop()
					e.handle(sh, &m)
				}
			}(sh)
		}
		wg.Wait()
		// Mailbox exchange, parallel over destinations: heap pop order is a
		// pure function of the (unique) keys, so the source interleaving a
		// destination drains in cannot influence anything downstream.
		wg.Add(e.nShards)
		for dst := range e.shards {
			go func(dst int) {
				defer wg.Done()
				h := &e.shards[dst].heap
				for _, src := range e.shards {
					for i := range src.out[dst] {
						h.push(src.out[dst][i])
					}
					src.out[dst] = src.out[dst][:0]
				}
			}(dst)
		}
		wg.Wait()
	}
	e.extra.Epochs++
}

// sample records one metrics row at simulated time t. The snapshot refresh
// and every recorded quantity are pure functions of the processed event
// prefix, which is why the stream is byte-identical across shard counts.
func (e *Engine) sample(est *metrics.ALEstimator, t float64, sAL, sSE, sEx, sMsg, sExact, sErr, sCrash, sLost, sTO, sEvict *obs.TimeSeries) error {
	e.extra.SnapshotConflicts += uint64(e.fs.refresh())
	sk, err := est.Estimate()
	if err != nil {
		return err
	}
	sAL.Sample(t, sk.AL)
	sSE.Sample(t, sk.StdErr)
	var tot Stats
	for _, sh := range e.shards {
		tot.Exchanges += sh.stats.Exchanges
		tot.Walks += sh.stats.Walks
		tot.Reports += sh.stats.Reports
		tot.Commits += sh.stats.Commits
		tot.VerRejected += sh.stats.VerRejected
		tot.Notifies += sh.stats.Notifies
		tot.Crashes += sh.stats.Crashes
		tot.Lost += sh.stats.Lost
		tot.LinkDownDrops += sh.stats.LinkDownDrops
		tot.PartitionDrops += sh.stats.PartitionDrops
		tot.ProbeTimeouts += sh.stats.ProbeTimeouts
		tot.CommitTimeouts += sh.stats.CommitTimeouts
		tot.Evictions += sh.stats.Evictions
	}
	sEx.Sample(t, float64(tot.Exchanges))
	sMsg.Sample(t, float64(tot.messages()))
	if sExact != nil {
		exact, err := metrics.AverageLatencyFrom(e.fs)
		if err != nil {
			return err
		}
		sExact.Sample(t, exact)
		sErr.Sample(t, 100*math.Abs(sk.AL-exact)/exact)
	}
	if sCrash != nil {
		sCrash.Sample(t, float64(tot.Crashes))
		sLost.Sample(t, float64(tot.Lost+tot.LinkDownDrops+tot.PartitionDrops))
		sTO.Sample(t, float64(tot.ProbeTimeouts+tot.CommitTimeouts))
		sEvict.Sample(t, float64(tot.Evictions))
	}
	return nil
}

// checkInvariants verifies the quiesced end state: no live peer stuck
// mid-probe or mid-commit, and the slot claims of live peers injective.
// Fault-free every peer is alive and injectivity over n peers and n slots
// is a bijection; under crash-stop churn, corpses keep their last claim
// (possibly the same slot a survivor moved onto mid-swap) and are
// excluded — their slots are simply vacant in the measurement plane.
func (e *Engine) checkInvariants() error {
	seen := make([]bool, e.n)
	for p := 0; p < e.n; p++ {
		if e.faultsOn && e.dead[p] {
			continue
		}
		if e.pstate[p] != 0 {
			return fmt.Errorf("shard: peer %d quiesced in state %d, want idle", p, e.pstate[p])
		}
		s := e.slotOf[p]
		if seen[s] {
			return fmt.Errorf("shard: slot %d claimed twice at quiescence", s)
		}
		seen[s] = true
	}
	return nil
}

// Stats sums the run tallies across shards. Meaningful after Run; all
// fields except CrossShard and Epochs are shard-count invariant — the
// fault tallies included, because every fault verdict is a stateless hash
// and every drop a pure function of the processed event prefix.
func (e *Engine) Stats() Stats {
	out := e.extra
	out.Peers = e.n
	out.Shards = e.nShards
	out.LookaheadMS = e.lookahead
	for _, sh := range e.shards {
		out.Probes += sh.stats.Probes
		out.Walks += sh.stats.Walks
		out.Reports += sh.stats.Reports
		out.Commits += sh.stats.Commits
		out.Exchanges += sh.stats.Exchanges
		out.GainRejected += sh.stats.GainRejected
		out.VerRejected += sh.stats.VerRejected
		out.Notifies += sh.stats.Notifies
		out.CrossShard += sh.stats.CrossShard
		out.Lost += sh.stats.Lost
		out.DupsSent += sh.stats.DupsSent
		out.LinkDownDrops += sh.stats.LinkDownDrops
		out.PartitionDrops += sh.stats.PartitionDrops
		out.Crashes += sh.stats.Crashes
		out.DeadDrops += sh.stats.DeadDrops
		out.ProbeTimeouts += sh.stats.ProbeTimeouts
		out.CommitTimeouts += sh.stats.CommitTimeouts
		out.StaleGuards += sh.stats.StaleGuards
		out.Evictions += sh.stats.Evictions
		out.NoNeighbor += sh.stats.NoNeighbor
	}
	return out
}

// FloodSource refreshes the occupancy snapshot and returns the engine's
// measurement plane, for exact-AL checks or ad-hoc estimation outside the
// sampled stream. The returned source reads live engine state through the
// snapshot — only use it while no window is executing.
func (e *Engine) FloodSource() metrics.FloodSource {
	e.extra.SnapshotConflicts += uint64(e.fs.refresh())
	return e.fs
}

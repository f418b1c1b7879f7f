package shard

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
)

// The epoch loop. Every window [t0, t1) satisfies t1 ≤ minAt + lookahead,
// where minAt is the earliest pending event anywhere: no event processed
// in the window can cause a cross-shard arrival before t1, so each shard
// drains its queue up to t1 in isolation, and the barrier afterwards moves
// mailbox messages (all stamped ≥ t1) into their destination queues. Sample
// times are window boundaries, so a sample always observes the exact
// prefix of the event stream with arrival time < sample time — the same
// prefix for every shard count.

// alSeedSalt separates the AL-estimator's source-sampling stream from the
// world-generation stream derived from the same Config.Seed.
const alSeedSalt = 0x414c2d657374 // "AL-est"

// Run executes the simulation: initial probe timers and the stateless
// crash schedule, the epoch loop with conservative-lookahead windows,
// per-sample metrics into tr (series prefix+"al_est_ms", "al_stderr_ms",
// "exchanges", "messages", the crash/churn event stream "crashed", "lost",
// "timeouts", "evictions", plus "al_exact_ms" and "al_err_pct" under
// Config.ExactAL), a drain of in-flight work past the horizon, and final
// invariant checks (every live peer idle, live slot claims injective). A
// nil tr runs the protocol without sampling. An Engine is single-use; a
// second Run returns an error.
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
		e.schedule(sh, int32(p), probeIntervalMS*u01(e.draw(int32(p))), kProbe, 0)
		// The crash schedule is a stateless per-peer hash, so this loop
		// plants byte-identical kCrash timers for every shard count.
		if at, ok := faults.CrashAt(e.seed, p, e.fc.CrashFrac, e.cfg.HorizonMS/3, 2*e.cfg.HorizonMS/3); ok {
			e.schedule(sh, int32(p), at, kCrash, 0)
		}
	}

	sampling := tr != nil
	var est *metrics.ALEstimator
	var series []*obs.TimeSeries // in sample's order
	if sampling {
		var err error
		est, err = metrics.NewALEstimator(e.fs, metrics.ALEstimatorOptions{Sources: e.cfg.ALSources}, rng.New(e.seed^alSeedSalt))
		if err != nil {
			return err
		}
		names := []string{"al_est_ms", "al_stderr_ms", "exchanges", "messages"}
		if e.cfg.ExactAL {
			names = append(names, "al_exact_ms", "al_err_pct")
		}
		// The crash/churn event stream: cumulative fault activity.
		names = append(names, "crashed", "lost", "timeouts", "evictions")
		for _, name := range names {
			series = append(series, tr.Series(prefix+name))
		}
	}

	horizon := e.cfg.HorizonMS
	step := e.cfg.SampleEveryMS
	t0, nextSample := 0.0, 0.0
	for {
		if sampling && nextSample <= horizon && t0 == nextSample {
			if err := e.sample(est, nextSample, series); err != nil {
				return err
			}
			nextSample += step
		}
		minAt := math.Inf(1)
		for _, sh := range e.shards {
			if k := sh.queue.next(); k != nil && k.at < minAt {
				minAt = k.at
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
	for _, sh := range e.shards {
		sh.queue = msgQueue{} // every queue is empty and the engine single-use
	}
	return e.checkInvariants()
}

// window processes, in parallel across shards, every pending event with
// arrival time strictly before t1, then exchanges the mailboxes. The
// lookahead argument guarantees no message generated inside the window
// lands before t1 (send panics otherwise), so the barrier is the only
// synchronization the epoch needs.
func (e *Engine) window(t1 float64) {
	var wg sync.WaitGroup
	wg.Add(e.nShards)
	for _, sh := range e.shards {
		go func(sh *shardRun) {
			defer wg.Done()
			q := &sh.queue
			q.advance(t1)
			for len(q.near) > 0 && q.near[0].at < t1 {
				m := q.pop()
				e.handle(sh, &m)
			}
		}(sh)
	}
	wg.Wait()
	// Mailbox exchange, parallel over destinations: queue pop order is a
	// pure function of the (unique) keys, so the source interleaving a
	// destination drains in cannot influence anything downstream.
	wg.Add(e.nShards)
	for dst := range e.shards {
		go func(dst int) {
			defer wg.Done()
			q := &e.shards[dst].queue
			for _, src := range e.shards {
				for i := range src.out[dst] {
					q.push(src.out[dst][i])
				}
				src.out[dst] = src.out[dst][:0]
			}
		}(dst)
	}
	wg.Wait()
	e.extra.Epochs++
}

// sample records one metrics row at simulated time t into series, Run's
// list. The snapshot refresh and every recorded quantity are pure
// functions of the processed event prefix, which is why the stream is
// byte-identical across shard counts.
func (e *Engine) sample(est *metrics.ALEstimator, t float64, series []*obs.TimeSeries) error {
	e.extra.SnapshotConflicts += uint64(e.fs.refresh())
	sk, err := est.Estimate()
	if err != nil {
		return err
	}
	var tot Stats
	for _, sh := range e.shards {
		tot.add(&sh.stats)
	}
	vals := []float64{sk.AL, sk.StdErr, float64(tot.Exchanges), float64(tot.messages())}
	if e.cfg.ExactAL {
		exact, err := metrics.AverageLatencyFrom(e.fs)
		if err != nil {
			return err
		}
		vals = append(vals, exact, 100*math.Abs(sk.AL-exact)/exact)
	}
	vals = append(vals, float64(tot.Crashes), float64(tot.Lost+tot.PartitionDrops),
		float64(tot.ProbeTimeouts+tot.CommitTimeouts), float64(tot.Evictions))
	for i, s := range series {
		s.Sample(t, vals[i])
	}
	return nil
}

// checkInvariants verifies the quiesced end state: no live peer stuck
// mid-probe or mid-commit, and the slot claims of live peers injective.
// Without crashes every peer is alive and injectivity over n peers and n
// slots is a bijection; under crash-stop churn, corpses keep their last
// claim (possibly the same slot a survivor moved onto mid-swap) and are
// excluded — their slots are simply vacant in the measurement plane.
func (e *Engine) checkInvariants() error {
	seen := make([]bool, e.n)
	for p := 0; p < e.n; p++ {
		if e.dead[p] {
			continue
		}
		if !e.txn[p].Idle() {
			return fmt.Errorf("shard: peer %d quiesced mid-cycle, want idle", p)
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
		out.add(&sh.stats)
	}
	return out
}

// add sums one shard's tallies into s: every counter a handler bumps.
func (s *Stats) add(o *Stats) {
	s.Probes += o.Probes
	s.Walks += o.Walks
	s.Reports += o.Reports
	s.Commits += o.Commits
	s.Exchanges += o.Exchanges
	s.GainRejected += o.GainRejected
	s.VerRejected += o.VerRejected
	s.Notifies += o.Notifies
	s.CrossShard += o.CrossShard
	s.Lost += o.Lost
	s.DupsSent += o.DupsSent
	s.PartitionDrops += o.PartitionDrops
	s.Crashes += o.Crashes
	s.DeadDrops += o.DeadDrops
	s.ProbeTimeouts += o.ProbeTimeouts
	s.CommitTimeouts += o.CommitTimeouts
	s.StaleGuards += o.StaleGuards
	s.Evictions += o.Evictions
	s.NoNeighbor += o.NoNeighbor
}

// FloodSource refreshes the occupancy snapshot and returns the engine's
// measurement plane, for exact-AL checks or ad-hoc estimation outside the
// sampled stream. The returned source reads live engine state through the
// snapshot — only use it while no window is executing.
func (e *Engine) FloodSource() metrics.FloodSource {
	e.extra.SnapshotConflicts += uint64(e.fs.refresh())
	return e.fs
}

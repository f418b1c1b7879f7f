package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// shardSizes sizes shard-262k-faults: one fig5a-scale ladder rung on the
// domain-sharded engine, with message faults and crash-stop churn.
type shardSizes struct {
	peers      int
	net        *NetConfig // tests only: a tiny world instead of ScaleTS(peers)
	horizonMin int
	stepMin    int
	faults     ShardFaults
	alSources  int // ALEstimator sketch width per sample
	floodRows  int // FloodInto rows timed by the traced pass
}

var shardFrozen = shardSizes{
	peers: 262144, horizonMin: 4, stepMin: 4, alSources: 8, floodRows: 16,
	faults: ShardFaults{LossProb: 0.02, DupProb: 0.005, JitterMS: 5, CrashFrac: 0.05},
}

type shardInstance struct {
	sz  shardSizes
	eng *ShardEngine
	tr  *ObsTrial
	out outcome
	// samples is the al_est_ms series the run wrote into the obs trial.
	samples []float64
}

const shardPrefix = "bench/"

func setupShard(sz shardSizes) setupFunc {
	return func(seed uint64, scale float64, tr *tracer, root int) (instance, error) {
		horizon := scaled(sz.horizonMin/sz.stepMin, scale) * sz.stepMin
		faults := sz.faults
		cfg := ShardConfig{
			Peers:         sz.peers,
			Net:           sz.net,
			Seed:          subSeed(seed, 0, 0),
			HorizonMS:     float64(horizon) * 60000,
			SampleEveryMS: float64(sz.stepMin) * 60000,
			ALSources:     sz.alSources,
			Faults:        &faults,
		}
		sp := tr.begin("shard.build", root, 0)
		eng, err := NewShard(cfg)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("build world: %w", err)
		}
		in := &shardInstance{sz: sz, eng: eng}
		in.tr = NewObsRegistry(NewObsManifest("bench-shard", seed, 1, 1)).Trial(0)
		return in, nil
	}
}

func (in *shardInstance) arm(*tracer, int) error { return nil }

func (in *shardInstance) run(tr *tracer, root int) error {
	sp := tr.begin("shard.run", root, 0)
	// Run samples AL into the obs trial and ends with the engine's own
	// invariant checks (every live peer idle, live slot claims injective).
	err := in.eng.Run(in.tr, shardPrefix)
	tr.end(sp)
	if err != nil {
		return err
	}
	_, in.samples = in.tr.Series(shardPrefix + "al_est_ms").Points()
	if len(in.samples) < 2 {
		return fmt.Errorf("engine sampled %d AL points, want ≥ 2", len(in.samples))
	}
	st := in.eng.Stats()
	in.out.ops = uint64(len(in.samples))
	for _, v := range in.samples {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			in.out.opsFailed++
		}
	}
	in.out.probes = st.Probes
	in.out.probesFailed = st.ProbeTimeouts + st.CommitTimeouts
	in.out.quality = in.samples[len(in.samples)-1] / in.samples[0]

	return nil
}

// check has no invariants of its own to run — Engine.Run returned its
// invariant error — and computes the digest outside the timed region.
func (in *shardInstance) check() error {
	st := in.eng.Stats()
	d := newDigest()
	d.f64(in.samples...)
	d.u64(uint64(st.Peers), st.Probes, st.Walks, st.Reports, st.Commits, st.Exchanges, st.GainRejected,
		st.VerRejected, st.Notifies, st.SnapshotConflicts, st.Lost, st.DupsSent, st.Crashes, st.DeadDrops,
		st.ProbeTimeouts, st.CommitTimeouts, st.StaleGuards, st.Evictions, st.NoNeighbor)
	// The engine keeps its slot→peer map private; rows flooded over the
	// final placement from fixed sources pin it instead.
	fs := in.eng.FloodSource()
	alive := fs.AliveSlots()
	dist := make([]float64, fs.NumSlots())
	for i := 0; i < 4; i++ {
		fs.FloodInto(alive[i*len(alive)/4], dist)
		d.f64(dist...)
	}
	in.out.digest, in.out.hasDigest = d.sum(), true
	return nil
}

func (in *shardInstance) outcome() outcome { return in.out }

func (in *shardInstance) layers(tr *tracer) error {
	// graph.* and netsim.* stay 0: the engine generates and releases its
	// physical graph inside shard.New, with no public seam to it.
	st := in.eng.Stats()
	runS := tr.sum("shard.run")
	msgs := float64(st.Walks + st.Reports + st.Commits + st.Notifies)
	tr.set("shard.build_s", tr.sum("shard.build"))
	tr.set("shard.run_busy_s", runS)
	tr.set("shard.epochs", float64(st.Epochs))
	tr.set("shard.messages", msgs)
	tr.set("shard.msgs_per_s", ratio(msgs, runS))
	tr.set("shard.cross_shard_share", ratio(float64(st.CrossShard), msgs))
	tr.set("shard.exchange_yield", ratio(float64(st.Exchanges), float64(st.Probes)))
	tr.set("shard.lost", float64(st.Lost))
	tr.set("shard.probe_timeouts", float64(st.ProbeTimeouts))
	tr.set("shard.commit_timeouts", float64(st.CommitTimeouts))
	tr.set("shard.evictions", float64(st.Evictions))
	tr.set("shard.parallel_eff", ratio(tr.get("bench.cpu_s"), tr.get("bench.run_s")*float64(runtime.GOMAXPROCS(0))))
	tr.set("shard.bytes_per_peer", tr.get("bench.live_heap_mb")*mb/float64(st.Peers))

	fs := in.eng.FloodSource()
	alive := fs.AliveSlots()
	dist := make([]float64, fs.NumSlots())
	us := timeBatch(in.sz.floodRows, time.Microsecond, func(i int) {
		fs.FloodInto(alive[i*len(alive)/in.sz.floodRows], dist)
	})
	tr.set("shard.flood_us", median(us))

	est, err := NewALEstimator(fs, ALOptions{Sources: in.sz.alSources}, NewRand(1))
	if err != nil {
		return fmt.Errorf("AL estimator: %w", err)
	}
	t0 := time.Now()
	al, err := est.Estimate()
	if err != nil {
		return fmt.Errorf("AL estimate: %w", err)
	}
	tr.set("metrics.al_estimate_s", time.Since(t0).Seconds())
	tr.set("metrics.al_stderr_ms", al.StdErr)
	return nil
}

package experiment

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/stats"
)

// The two peer ladders ask fig5a's and figR's questions at 10⁴–10⁶
// peers (SCALING.md), where the sequential engine and the exact AL
// evaluation are both unaffordable: every rung runs the domain-sharded
// engine (internal/shard) on a ScaleTS world and samples the estimated
// average latency. Rungs are not averaged trials — each gets its own
// series and its own obs trial index. figR-scale sweeps the full loss and
// crash grids on the smallest rung only; higher rungs run each sweep's
// endpoints, because a full grid at 10⁶ peers costs an hour where the
// endpoints already show whether the degradation trend survives the scale
// jump. The engine's fault schedule is stateless, so the streams stay
// byte-identical across shard counts with faults on.

const (
	// scaleMinPeers is the smallest rung: one ScaleTS stub layer (16
	// domains × 8 routers × 32 hosts), also the largest size where the
	// exact AL reference is computed alongside the estimate.
	scaleMinPeers = 4096
	// scaleMaxPeers is the top of the default ladder.
	scaleMaxPeers = 1_000_000
	// scaleHorizonMS and scaleMinHorizonMS bound the simulated optimization
	// window: ten minutes at full Scale, shrunk proportionally (with a
	// floor that keeps at least three samples) for quick runs.
	scaleHorizonMS    = 10 * 60000
	scaleMinHorizonMS = 4 * 60000
)

// scaleRungs returns the peer-count ladder: geometric steps up to the
// effective maximum (Options.ScaleMaxN, default 10⁶, shrunk by
// Options.Scale), always ending exactly at that maximum.
func scaleRungs(opt Options) []int {
	maxN := opt.ScaleMaxN
	if maxN <= 0 {
		maxN = scaleMaxPeers
	}
	maxN = scaled(maxN, opt.Scale, scaleMinPeers)
	var rungs []int
	for _, r := range []int{scaleMinPeers, 32768, 262144} {
		if r < maxN {
			rungs = append(rungs, r)
		}
	}
	return append(rungs, maxN)
}

// ladder returns a ladder run's rungs, its simulated horizon and its
// registry: the caller's, or a private one — the sharded engine samples
// its own stream, so a ladder needs a registry even when the caller didn't
// ask for one.
func ladder(id string, opt Options) ([]int, float64, *obs.Registry) {
	rungs := scaleRungs(opt)
	reg := opt.Metrics
	if reg == nil {
		reg = obs.New(obs.NewManifest(id, opt.Seed, len(rungs), opt.Scale))
	}
	return rungs, float64(scaled(scaleHorizonMS, opt.Scale, scaleMinHorizonMS)), reg
}

// runRung generates one sharded-engine world inside the span genSpan and
// runs it to cfg.HorizonMS under the stream prefix "n=<peers>/" + sub. It
// returns the engine and the run's estimated-AL samples.
func runRung(tr *obs.Trial, cfg shard.Config, genSpan, sub string) (*shard.Engine, []float64, []float64, error) {
	sp := tr.StartSpan(genSpan, 0)
	e, err := shard.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	sp.End(0)
	prefix := fmt.Sprintf("n=%d/%s", e.Peers(), sub)
	sp = tr.StartSpan(prefix+"simulate", 0)
	if err := e.Run(tr, prefix); err != nil {
		return nil, nil, nil, err
	}
	sp.End(cfg.HorizonMS)
	ts, vs := tr.Series(prefix + "al_est_ms").Points()
	return e, ts, vs, nil
}

// shardFaults is the sharded engine's schedule for a loss rate (with figR's
// coupling: duplication at figRDupFraction of it, jitter U[0, figRJitterMS))
// and a crash fraction (in the engine's crash window, the middle third of
// the horizon). The -partition override, when set, isolates transit domain
// 0 (the engine's partition cut) for its length from horizon/3 — the figRc
// shape, restated in engine terms.
func shardFaults(loss, crash float64, opt Options, horizon float64) *shard.FaultConfig {
	fc := &shard.FaultConfig{CrashFrac: crash}
	if loss > 0 {
		fc.LossProb, fc.DupProb, fc.JitterMS = loss, loss*figRDupFraction, figRJitterMS
	}
	if opt.FaultPartitionMS > 0 {
		fc.PartitionStartMS = horizon / 3
		fc.PartitionStopMS = horizon/3 + opt.FaultPartitionMS
	}
	return fc
}

func runFig5aScale(opt Options) ([]stats.Series, []string, error) {
	rungs, horizon, reg := ladder("fig5a-scale", opt)
	// The -loss/-crash/-partition overrides attach one fault schedule to
	// every rung (figR-scale sweeps them instead); none set runs the zero
	// schedule.
	var faults *shard.FaultConfig
	if opt.FaultLoss > 0 || opt.FaultCrash > 0 || opt.FaultPartitionMS > 0 {
		faults = shardFaults(opt.FaultLoss, opt.FaultCrash, opt, horizon)
	}
	// The exact eq. (3) reference (O(n·Dijkstra) per sample) rides along on
	// the smallest rung, and only at full Scale: it is the fidelity check of
	// a real run, not something the quick-sweep tests should pay for.
	exactRung := opt.Scale >= 1
	series := make([]stats.Series, len(rungs))
	notes := []string{
		fmt.Sprintf("sharded engine: %d rung(s), horizon %.0f sim-min, seed=%d scale=%.2f", len(rungs), horizon/60000, opt.Seed, opt.Scale),
		fmt.Sprintf("al series are %d-source sketches (metrics.ALEstimator); exact reference + al_err_pct on the n=%d rung at full scale: %v", 16, scaleMinPeers, exactRung),
	}
	if faults != nil {
		notes = append(notes, fmt.Sprintf(
			"fault schedule on every rung: loss=%g dup=%g jitter=%gms crash=%g partition=[%.0f,%.0f)ms; the crash/churn series ride the stream",
			faults.LossProb, faults.DupProb, faults.JitterMS, faults.CrashFrac, faults.PartitionStartMS, faults.PartitionStopMS))
	}
	for i, n := range rungs {
		tr := reg.Trial(i)
		wallStart := time.Now()
		e, ts, vs, err := runRung(tr, shard.Config{
			Peers:     n,
			Shards:    opt.Shards,
			Seed:      trialSeed(opt.Seed, i),
			HorizonMS: horizon,
			ExactAL:   exactRung && n <= scaleMinPeers,
			Faults:    faults,
		}, "gen-world", "")
		if err != nil {
			return nil, nil, fmt.Errorf("fig5a-scale n=%d: %w", n, err)
		}
		st := e.Stats()
		notes = append(notes, fmt.Sprintf(
			"n=%d: %d peers, %d shards, lookahead %.0f ms, %d epochs, %d exchanges, %d cross-shard msgs, %d snapshot conflicts",
			n, st.Peers, st.Shards, st.LookaheadMS, st.Epochs, st.Exchanges, st.CrossShard, st.SnapshotConflicts))
		// Wall time and memory ride the obs stream only when the registry
		// has opted into wall-clock fields (propsim -metrics-wall) — they
		// are inherently nondeterministic, and the default stream stays
		// byte-identical across runs.
		if reg.WallClock() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			prefix := fmt.Sprintf("n=%d/", e.Peers())
			tr.Series(prefix+"walltime_s").Sample(horizon, time.Since(wallStart).Seconds())
			tr.Series(prefix+"heap_alloc_mb").Sample(horizon, float64(ms.HeapAlloc)/(1<<20))
		}
		series[i] = stats.Series{Label: fmt.Sprintf("n=%d", e.Peers())}
		for j := range ts {
			series[i].Add(ts[j]/60000, vs[j])
		}
	}
	return series, append(notes,
		"expected shape: every rung's estimated AL decreases over the run; larger n converges slower in wall terms, not in sim time"), nil
}

// sweepEndpoints trims a sweep to its first and last points — the
// fault-free reference and the harshest rate.
func sweepEndpoints(grid []float64) []float64 {
	if len(grid) <= 2 {
		return grid
	}
	return []float64{grid[0], grid[len(grid)-1]}
}

func runFigRScale(opt Options) ([]stats.Series, []string, error) {
	rungs, horizon, reg := ladder("figR-scale", opt)
	lossGrid := faultSweep(figRLossGrid, opt.FaultLoss)
	crashGrid := faultSweep(figRCrashGrid, opt.FaultCrash)
	notes := []string{
		fmt.Sprintf("sharded engine: %d rung(s), horizon %.0f sim-min, seed=%d scale=%.2f", len(rungs), horizon/60000, opt.Seed, opt.Scale),
		fmt.Sprintf("loss points carry duplication = loss/%g and jitter U[0,%dms); crash points add the background loss %g of figR's crash sweep", 1/figRDupFraction, figRJitterMS, figRBackgroundLoss),
		"rungs above the smallest run only each sweep's endpoints (fault-free + harshest rate)",
		"expected shape: final AL rises gently with either fault rate and stays below the unoptimized start at every rung",
	}
	if opt.FaultPartitionMS > 0 {
		notes = append(notes, fmt.Sprintf("every faulty point additionally isolates transit domain 0 for %.0f sim-min starting at minute %.0f", opt.FaultPartitionMS/60000, horizon/3/60000))
	}

	var series []stats.Series
	for i, n := range rungs {
		lg, cg := lossGrid, crashGrid
		if i > 0 {
			lg, cg = sweepEndpoints(lossGrid), sweepEndpoints(crashGrid)
		}
		// Same world seed for every point of a rung, so the curves isolate
		// the fault effect on one placement problem.
		tr := reg.Trial(i)
		point := func(label string, fc *shard.FaultConfig) (*shard.Engine, float64, error) {
			e, _, vs, err := runRung(tr, shard.Config{
				Peers: n, Shards: opt.Shards, Seed: trialSeed(opt.Seed, i), HorizonMS: horizon, Faults: fc,
			}, fmt.Sprintf("n=%d/%s/gen-world", n, label), label+"/")
			if err != nil {
				return nil, 0, fmt.Errorf("figR-scale n=%d %s: %w", n, label, err)
			}
			return e, vs[len(vs)-1], nil
		}
		// The shared fault-free reference runs once and anchors both sweeps
		// at x=0; the crash points add the crash sweep's background loss.
		e, final, err := point("base", nil)
		if err != nil {
			return nil, nil, err
		}
		lossS := stats.Series{Label: fmt.Sprintf("n=%d loss", e.Peers())}
		crashS := stats.Series{Label: fmt.Sprintf("n=%d crash", e.Peers())}
		lossS.Add(0, final)
		crashS.Add(0, final)
		for _, sw := range []struct {
			kind string
			grid []float64
			s    *stats.Series
		}{{"loss", lg, &lossS}, {"crash", cg, &crashS}} {
			for _, rate := range sw.grid {
				if rate <= 0 {
					continue
				}
				fc := shardFaults(rate, 0, opt, horizon)
				if sw.kind == "crash" {
					fc = shardFaults(figRBackgroundLoss, rate, opt, horizon)
				}
				label := fmt.Sprintf("%s%g", sw.kind, rate*100)
				e, final, err := point(label, fc)
				if err != nil {
					return nil, nil, err
				}
				st := e.Stats()
				notes = append(notes, fmt.Sprintf(
					"n=%d %s: %d exchanges, %d lost, %d crashes, %d timeouts, %d evictions",
					st.Peers, label, st.Exchanges,
					st.Lost+st.PartitionDrops, st.Crashes,
					st.ProbeTimeouts+st.CommitTimeouts, st.Evictions))
				sw.s.Add(rate*100, final)
			}
		}
		series = append(series, lossS, crashS)
	}
	return series, notes, nil
}

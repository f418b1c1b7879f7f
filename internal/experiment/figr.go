package experiment

import (
	"fmt"
	"sort"

	"repro/internal/audit"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/gnutella"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The figR* family is the robustness extension of the paper's evaluation:
// the same PROP protocols, but run over the internal/faults layer instead of
// a perfectly reliable network. Three experiments cover the three fault
// dimensions the paper leaves out:
//
//	figRa — i.i.d. message loss (plus proportional duplication and jitter):
//	        how much of the PROP-G/PROP-O latency gain survives as the loss
//	        rate grows.
//	figRb — crash-stop churn: peers die without deregistering, survivors
//	        evict the corpses and a periodic repair round rewires the
//	        overlay; the audit invariant suite must hold after every repair.
//	figRc — a transient network partition isolating one transit domain:
//	        optimization stalls across the cut and recovers after healing.
//
// All three are deterministic in (Seed, Trials, Scale) like every other
// experiment; the fault schedules derive from the trial seed, so the metrics
// streams are byte-reproducible (see TestFigRMetricsByteDeterminism).

// Default fault intensities of the family. figRa sweeps figRLossGrid; figRb
// sweeps figRCrashGrid under a fixed background loss; figRc holds the same
// background loss and adds the partition window.
var (
	figRLossGrid  = []float64{0, 0.01, 0.02, 0.05, 0.10}
	figRCrashGrid = []float64{0, 0.05, 0.10, 0.20}
)

const (
	// figRDupFraction couples the duplication probability to the swept loss
	// rate (a quarter of the loss rate), so one knob moves both.
	figRDupFraction = 0.25
	// figRJitterMS is the per-message queueing-jitter bound.
	figRJitterMS = 5
	// figRBackgroundLoss is the fixed loss rate of figRb and figRc, chosen
	// inside the "still converges" regime established by figRa.
	figRBackgroundLoss = 0.02
)

func init() {
	registry["figRa"] = runner{
		describe: "robustness: PROP-G/PROP-O final stretch vs message-loss rate",
		run:      runFigRa,
		faults:   consumesLoss,
	}
	registry["figRb"] = runner{
		describe: "robustness: PROP-G under crash-stop churn with repair rounds and audit",
		run:      runFigRb,
		faults:   consumesCrash,
	}
	registry["figRc"] = runner{
		describe: "robustness: PROP-G through a transient network partition",
		run:      runFigRc,
		faults:   consumesPartition,
	}
}

// faultSweep returns the swept grid, collapsed to {0, override} when the
// caller pinned a single fault intensity (cmd/propsim -loss / -crash).
func faultSweep(grid []float64, override float64) []float64 {
	if override <= 0 {
		return grid
	}
	return []float64{0, override}
}

// runFigRa sweeps the i.i.d. message-loss rate and reports the final stretch
// of PROP-G and PROP-O next to the unoptimized overlay. Lost probes cost
// retransmissions and timeouts, so convergence slows — but with bounded
// retry and measurement poisoning the latency gain should survive every
// swept rate, degrading smoothly instead of wedging.
func runFigRa(opt Options) (*Result, error) {
	grid := faultSweep(figRLossGrid, opt.FaultLoss)
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		return oneFigRaTrial(opt, grid, opt.Metrics.Trial(trial), trialSeed(opt.Seed, trial))
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "figRa",
		Title:  "Robustness to message loss: final stretch after optimization vs loss rate",
		XLabel: "loss rate (%)",
		YLabel: "stretch",
		Series: mergeTrials(perTrial),
		Notes: []string{
			fmt.Sprintf("per message: loss as swept, duplication = loss/%g, jitter U[0,%dms)", 1/figRDupFraction, figRJitterMS),
			"expected shape: both policies stay well below the unoptimized line across the sweep, rising gently with loss",
			"timeout/retry/eviction totals are in the metrics stream under figRa/<policy>/loss<pct>/faults.*",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

func oneFigRaTrial(opt Options, grid []float64, tr *obs.Trial, seed uint64) ([]stats.Series, error) {
	e, err := newEnv(netsim.TSLarge(), seed)
	if err != nil {
		return nil, err
	}
	e.instrumentOracle(tr, "figRa/")
	n := scaled(1000, opt.Scale, 100)
	base, err := e.buildGnutella(n)
	if err != nil {
		return nil, err
	}
	phys := e.meanPhysLink()
	unopt := base.Stretch(phys)

	policies := []struct {
		label  string
		policy core.Policy
		m      int
	}{
		{"PROP-G", core.PROPG, 0},
		{"PROP-O (m=2)", core.PROPO, 2},
	}
	out := make([]stats.Series, len(policies)+1)
	for pi, pol := range policies {
		out[pi] = stats.Series{Label: pol.label}
	}
	out[len(policies)] = stats.Series{Label: "unoptimized"}

	for gi, loss := range grid {
		for pi, pol := range policies {
			oc := base.Clone()
			cfg := core.DefaultConfig(pol.policy)
			cfg.M = pol.m
			p, err := core.New(oc, cfg, e.r.Split())
			if err != nil {
				return nil, err
			}
			var inj *faults.Injector
			if loss > 0 {
				inj, err = faults.NewInjector(faults.Config{
					Seed:     trialSeed(seed, 100+gi*8+pi),
					LossProb: loss,
					DupProb:  loss * figRDupFraction,
					JitterMS: figRJitterMS,
				})
				if err != nil {
					return nil, err
				}
				p.AttachFaults(inj)
			}
			eng := event.New()
			p.Start(eng)
			prefix := fmt.Sprintf("figRa/%s/loss%g/", pol.label, loss*100)
			sp := tr.StartSpan(prefix+"optimize", 0)
			const sampleStep = 60000.0
			for t := 0.0; t <= horizonMS; t += sampleStep {
				eng.RunUntil(event.Time(t))
				if tr != nil {
					tr.Series(prefix+"stretch").Sample(t, oc.Stretch(phys))
					sampleFaultCounters(tr, prefix, t, p.Counters)
				}
			}
			sp.End(horizonMS)
			recordCounterTotals(tr, prefix+"prop.", p.Counters)
			recordFaultTotals(tr, prefix, p.Counters, inj)
			out[pi].Add(loss*100, oc.Stretch(phys))
		}
		out[len(policies)].Add(loss*100, unopt)
	}
	return out, nil
}

// runFigRb sweeps the crash-stop fraction: during the churn window a share
// of the peers dies without deregistering, under a fixed background loss
// rate. Survivors drop the stale references through liveness eviction, and a
// once-per-minute repair round purges the corpses and rewires the survivors.
// The audit invariant suite — slot↔host bijection at every sample tick,
// connectivity and overlay well-formedness after every repair round — turns
// any repair bug into a run failure.
func runFigRb(opt Options) (*Result, error) {
	grid := faultSweep(figRCrashGrid, opt.FaultCrash)
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		return oneFigRbTrial(opt, grid, opt.Metrics.Trial(trial), trialSeed(opt.Seed, trial))
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "figRb",
		Title:  "Robustness to crash-stop churn: final stretch vs crashed fraction (with repair)",
		XLabel: "crashed peers (%)",
		YLabel: "stretch | corpses repaired",
		Series: mergeTrials(perTrial),
		Notes: []string{
			fmt.Sprintf("background faults: loss=%g, duplication=%g, jitter U[0,%dms); crashes Poisson inside minutes %d-%d",
				figRBackgroundLoss, figRBackgroundLoss*figRDupFraction, figRJitterMS, churnStartMS/60000, churnStopMS/60000),
			"repair: once per minute, gnutella.RepairCrashed purges corpses and rewires survivors; audit (bijection, connectivity, overlay invariants) runs after every repair round and fails the run on violation",
			"expected shape: stretch rises mildly with the crashed fraction but stays below the unoptimized overlay",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

func oneFigRbTrial(opt Options, grid []float64, tr *obs.Trial, seed uint64) ([]stats.Series, error) {
	e, err := newEnv(netsim.TSLarge(), seed)
	if err != nil {
		return nil, err
	}
	e.instrumentOracle(tr, "figRb/")
	n := scaled(1000, opt.Scale, 100)
	base, err := e.buildGnutella(n)
	if err != nil {
		return nil, err
	}
	phys := e.meanPhysLink()

	stretchSeries := stats.Series{Label: "PROP-G stretch"}
	repairSeries := stats.Series{Label: "corpses repaired"}
	for gi, frac := range grid {
		oc := base.Clone()
		p, err := core.New(oc, core.DefaultConfig(core.PROPG), e.r.Split())
		if err != nil {
			return nil, err
		}
		inj, err := faults.NewInjector(faults.Config{
			Seed:     trialSeed(seed, 900+gi),
			LossProb: figRBackgroundLoss,
			DupProb:  figRBackgroundLoss * figRDupFraction,
			JitterMS: figRJitterMS,
		})
		if err != nil {
			return nil, err
		}
		p.AttachFaults(inj)
		eng := event.New()
		p.Start(eng)

		// The bijection must hold at every sample tick, even with corpses
		// pending repair; connectivity and full overlay well-formedness are
		// post-repair properties (a corpse may be a cut vertex until the
		// repair round rewires around it).
		always := audit.New(1, 16)
		always.Register(audit.OverlayBijection(oc))
		postRepair := audit.New(1, 16)
		postRepair.Register(
			audit.OverlayBijection(oc),
			audit.OverlayConnected(oc),
			audit.Check("overlay-invariants", oc.CheckInvariants),
		)

		cr := e.r.Split()
		crashBudget := int(frac * float64(n))
		if crashBudget > 0 {
			mean := float64(churnStopMS-churnStartMS) / float64(crashBudget)
			ru, err := churn.NewRunner(churn.Config{
				StartMS: churnStartMS, StopMS: churnStopMS, MeanCrashIntervalMS: mean,
			}, cr)
			if err != nil {
				return nil, err
			}
			ru.OnCrash = func(en *event.Engine) error {
				alive := oc.AliveSlots()
				if len(alive) <= 10 {
					return fmt.Errorf("overlay too small to crash")
				}
				victim := alive[cr.Intn(len(alive))]
				if err := oc.CrashSlot(victim); err != nil {
					return err
				}
				p.CrashNode(victim)
				return nil
			}
			ru.Start(eng)
		}

		prefix := fmt.Sprintf("figRb/crash%g/", frac*100)
		repaired := 0
		sp := tr.StartSpan(prefix+"simulate", 0)
		const sampleStep = 60000.0
		for t := 0.0; t <= churnHorizonMS; t += sampleStep {
			eng.RunUntil(event.Time(t))
			if corpses := oc.CrashedSlots(); len(corpses) > 0 {
				// Survivors whose neighbor sets the repair is about to touch:
				// the corpses' (stale) neighbors. Notify them afterwards so
				// their probe state reconciles against the rewired edges.
				touched := map[int]bool{}
				for _, c := range corpses {
					for _, nb := range oc.Neighbors(c) {
						if oc.Alive(nb) {
							touched[nb] = true
						}
					}
				}
				nrep, err := gnutella.RepairCrashed(oc, gnutella.DefaultConfig(), cr)
				if err != nil {
					return nil, err
				}
				repaired += nrep
				slots := make([]int, 0, len(touched))
				for s := range touched {
					slots = append(slots, s)
				}
				sort.Ints(slots)
				p.NeighborsChanged(eng, slots...)
				postRepair.CheckNow()
				if err := postRepair.Err(); err != nil {
					return nil, fmt.Errorf("figRb crash=%g post-repair audit: %w", frac, err)
				}
			}
			always.CheckNow()
			if err := always.Err(); err != nil {
				return nil, fmt.Errorf("figRb crash=%g audit: %w", frac, err)
			}
			if tr != nil {
				tr.Series(prefix+"stretch").Sample(t, oc.Stretch(phys))
				tr.Series(prefix+"alive_nodes").Sample(t, float64(oc.NumAlive()))
				tr.Series(prefix+"repaired").Sample(t, float64(repaired))
				sampleFaultCounters(tr, prefix, t, p.Counters)
			}
		}
		sp.End(churnHorizonMS)
		recordCounterTotals(tr, prefix+"prop.", p.Counters)
		recordFaultTotals(tr, prefix, p.Counters, inj)
		if !oc.Connected() {
			return nil, fmt.Errorf("figRb crash=%g left the overlay disconnected", frac)
		}
		stretchSeries.Add(frac*100, oc.Stretch(phys))
		repairSeries.Add(frac*100, float64(repaired))
	}
	return []stats.Series{stretchSeries, repairSeries}, nil
}

// runFigRc runs PROP-G through a transient network partition: at minute 20
// every node of transit domain 0 is cut off from the rest of the backbone
// for the partition window (default: 15 minutes, override with
// cmd/propsim -partition). Probes crossing the cut time out, retries back
// off, and optimization across the cut stalls; after healing the stretch
// recovers. The logical overlay never loses edges — the partition afflicts
// message delivery, not membership.
func runFigRc(opt Options) (*Result, error) {
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		return oneFigRcTrial(opt, opt.Metrics.Trial(trial), trialSeed(opt.Seed, trial))
	})
	if err != nil {
		return nil, err
	}
	partLen := opt.FaultPartitionMS
	if partLen <= 0 {
		partLen = churnStopMS - churnStartMS
	}
	return &Result{
		ID:     "figRc",
		Title:  "Robustness to a transient partition: stretch and fault activity over time",
		XLabel: "time (min)",
		YLabel: "stretch | probes/node/min | timeouts/node/min",
		Series: mergeTrials(perTrial),
		Notes: []string{
			fmt.Sprintf("partition: transit domain 0 isolated during minutes %g-%g; background loss=%g",
				churnStartMS/60000.0, (churnStartMS+partLen)/60000.0, figRBackgroundLoss),
			"expected shape: timeout rate spikes inside the window and collapses after healing; stretch keeps improving (intra-side exchanges continue) and converges once the cut heals",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

func oneFigRcTrial(opt Options, tr *obs.Trial, seed uint64) ([]stats.Series, error) {
	const prefix = "figRc/"
	e, err := newEnv(netsim.TSLarge(), seed)
	if err != nil {
		return nil, err
	}
	e.instrumentOracle(tr, prefix)
	n := scaled(1000, opt.Scale, 100)
	o, err := e.buildGnutella(n)
	if err != nil {
		return nil, err
	}
	phys := e.meanPhysLink()
	p, err := core.New(o, core.DefaultConfig(core.PROPG), e.r.Split())
	if err != nil {
		return nil, err
	}
	partLen := opt.FaultPartitionMS
	if partLen <= 0 {
		partLen = churnStopMS - churnStartMS
	}
	inj, err := faults.NewInjector(faults.Config{
		Seed:             trialSeed(seed, 9100),
		LossProb:         figRBackgroundLoss,
		DupProb:          figRBackgroundLoss * figRDupFraction,
		JitterMS:         figRJitterMS,
		PartitionStartMS: churnStartMS,
		PartitionStopMS:  churnStartMS + partLen,
		Isolated:         e.net.PartitionByDomain(0),
	})
	if err != nil {
		return nil, err
	}
	p.AttachFaults(inj)
	eng := event.New()
	p.Start(eng)

	stretchSeries := stats.Series{Label: "stretch"}
	probeSeries := stats.Series{Label: "probes/node/min"}
	timeoutSeries := stats.Series{Label: "timeouts/node/min"}
	lastProbes, lastTimeouts := uint64(0), uint64(0)
	sp := tr.StartSpan(prefix+"simulate", 0)
	const sampleStep = 60000.0
	for t := 0.0; t <= churnHorizonMS; t += sampleStep {
		eng.RunUntil(event.Time(t))
		nodes := float64(o.NumAlive())
		if nodes == 0 {
			nodes = 1
		}
		dp := p.Counters.Probes - lastProbes
		dt := p.Counters.Timeouts - lastTimeouts
		lastProbes, lastTimeouts = p.Counters.Probes, p.Counters.Timeouts
		stretchSeries.Add(t/60000, o.Stretch(phys))
		probeSeries.Add(t/60000, float64(dp)/nodes)
		timeoutSeries.Add(t/60000, float64(dt)/nodes)
		if tr != nil {
			tr.Series(prefix+"stretch").Sample(t, o.Stretch(phys))
			tr.Series(prefix+"partition_drops").Sample(t, float64(inj.Stats().PartitionDrops))
			sampleFaultCounters(tr, prefix, t, p.Counters)
			sampleProtocol(tr, prefix, t, p, o)
		}
	}
	sp.End(churnHorizonMS)
	recordCounterTotals(tr, prefix+"prop.", p.Counters)
	recordFaultTotals(tr, prefix, p.Counters, inj)
	return []stats.Series{stretchSeries, probeSeries, timeoutSeries}, nil
}

package experiment

import (
	"fmt"
	"sort"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/gnutella"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The figR* family is the robustness extension of the paper's evaluation:
// the same PROP protocols, but run over the internal/faults layer instead of
// a perfectly reliable network. Two rows cover the three fault dimensions
// the paper leaves out:
//
//	figR  — two sweeps, each over its own Gnutella world. The loss sweep:
//	        i.i.d. message loss (plus proportional duplication and jitter),
//	        how much of the PROP-G/PROP-O latency gain survives as the loss
//	        rate grows. The crash sweep: crash-stop churn, peers die without
//	        deregistering, survivors evict the corpses and a periodic repair
//	        round rewires the overlay; the audit invariant suite must hold
//	        after every repair.
//	figRc — a transient network partition isolating one transit domain:
//	        optimization stalls across the cut and recovers after healing.
//
// Both are deterministic in (Seed, Trials, Scale) like every other
// experiment; the fault schedules derive from the trial seed, so the metrics
// streams are byte-reproducible (pinned in testdata/golden_amd64.txt).

// Default fault intensities of the family. figR's loss sweep runs
// figRLossGrid; its crash sweep runs figRCrashGrid under a fixed background
// loss; figRc holds the same background loss and adds the partition window.
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
	// figRBackgroundLoss is the fixed loss rate of figR's crash sweep and
	// figRc, chosen inside the "still converges" regime of the loss sweep.
	figRBackgroundLoss = 0.02
)

// faultSweep returns the swept grid, collapsed to {0, override} when the
// caller pinned a single fault intensity (cmd/propsim -loss / -crash).
func faultSweep(grid []float64, override float64) []float64 {
	if override <= 0 {
		return grid
	}
	return []float64{0, override}
}

// partitionMS is figRc's partition-window length: the -partition override,
// or the churn window.
func partitionMS(opt Options) float64 {
	if opt.FaultPartitionMS > 0 {
		return opt.FaultPartitionMS
	}
	return churnStopMS - churnStartMS
}

// lossFaults is the family's loss-coupled injector schedule: duplication
// at figRDupFraction of the loss rate, jitter U[0, figRJitterMS).
func lossFaults(seed uint64, loss float64) faults.Config {
	return faults.Config{Seed: seed, LossProb: loss, DupProb: loss * figRDupFraction, JitterMS: figRJitterMS}
}

// runFaulty drives p under inj (nil: fault-free) on eng to horizon inside
// the span prefix+span, sampling every minute, then records the protocol's
// counter and fault totals under prefix.
func runFaulty(tr *obs.Trial, prefix, span string, eng *event.Engine, p *core.Protocol, inj *faults.Injector, horizon float64,
	sample func(t float64) error, start ...func(*event.Engine)) error {
	if inj != nil {
		p.AttachFaults(inj)
	}
	sp := tr.StartSpan(prefix+span, 0)
	if err := optimize(eng, p, horizon, minuteMS, sample, start...); err != nil {
		return err
	}
	sp.End(horizon)
	recordCounterTotals(tr, prefix+"prop.", p.Counters)
	recordFaultTotals(tr, prefix, p.Counters, inj)
	return nil
}

// figRTrial runs the loss sweep and then the crash sweep. Each builds its
// own world from the trial seed, so neither sweep's numbers depend on the
// other's.
func figRTrial(c *trialCtx) ([]stats.Series, error) {
	loss, err := lossSweep(c)
	if err != nil {
		return nil, err
	}
	crash, err := crashSweep(c)
	if err != nil {
		return nil, err
	}
	return append(loss, crash...), nil
}

// lossSweep sweeps the i.i.d. message-loss rate and reports the final
// stretch of PROP-G and PROP-O next to the unoptimized overlay. Lost probes
// cost retransmissions and timeouts, so convergence slows — but with
// bounded retry and measurement poisoning the latency gain should survive
// every swept rate, degrading smoothly instead of wedging.
func lossSweep(c *trialCtx) ([]stats.Series, error) {
	e, base, err := c.gnutellaWorld("figR/loss/")
	if err != nil {
		return nil, err
	}
	phys := e.meanPhysLink()
	unopt := base.Stretch(phys)
	policies := []struct {
		label  string
		policy core.Policy
		m      int
	}{{"PROP-G", core.PROPG, 0}, {"PROP-O (m=2)", core.PROPO, 2}}
	out := []stats.Series{{Label: "loss: PROP-G"}, {Label: "loss: PROP-O (m=2)"}, {Label: "loss: unoptimized"}}
	for gi, loss := range faultSweep(figRLossGrid, c.FaultLoss) {
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
				if inj, err = faults.NewInjector(lossFaults(trialSeed(c.world, 100+gi*8+pi), loss)); err != nil {
					return nil, err
				}
			}
			prefix := fmt.Sprintf("figR/loss/%s/loss%g/", pol.label, loss*100)
			if err := runFaulty(c.tr, prefix, "optimize", event.New(), p, inj, horizonMS, func(t float64) error {
				if c.tr != nil {
					c.tr.Series(prefix+"stretch").Sample(t, oc.Stretch(phys))
					sampleFaultCounters(c.tr, prefix, t, p.Counters)
				}
				return nil
			}); err != nil {
				return nil, err
			}
			out[pi].Add(loss*100, oc.Stretch(phys))
		}
		out[len(policies)].Add(loss*100, unopt)
	}
	return out, nil
}

// crashSweep sweeps the crash-stop fraction: during the churn window each
// host dies without deregistering with the swept probability, at
// faults.CrashAt's time, under a fixed background loss rate. Survivors drop
// the stale references through liveness eviction, and a once-per-minute
// repair round purges the corpses and rewires the survivors. The audit
// invariant suite — slot↔host bijection at every sample tick, connectivity
// and overlay well-formedness after every repair round — turns any repair
// bug into a run failure.
func crashSweep(c *trialCtx) ([]stats.Series, error) {
	e, base, err := c.gnutellaWorld("figR/crash/")
	if err != nil {
		return nil, err
	}
	phys := e.meanPhysLink()
	tr := c.tr
	// One crash seed per trial: a larger fraction crashes a superset of the
	// hosts, each at the same time.
	crashSeed := trialSeed(c.world, 990)

	stretchSeries := stats.Series{Label: "crash: PROP-G stretch"}
	repairSeries := stats.Series{Label: "crash: corpses repaired"}
	for gi, frac := range faultSweep(figRCrashGrid, c.FaultCrash) {
		oc := base.Clone()
		g := gnutella.Net{O: oc, Config: gnutella.DefaultConfig()}
		p, err := core.New(oc, core.DefaultConfig(core.PROPG), e.r.Split())
		if err != nil {
			return nil, err
		}
		inj, err := faults.NewInjector(lossFaults(trialSeed(c.world, 900+gi), figRBackgroundLoss))
		if err != nil {
			return nil, err
		}

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
		// Plant the crash schedule's events: each selected host dies at its
		// time, as whatever slot it backs then, while more than 10 are alive.
		var crashErr error
		plant := func(en *event.Engine) {
			for _, h := range oc.Hosts() {
				at, ok := faults.CrashAt(crashSeed, h, frac, churnStartMS, churnStopMS)
				if !ok {
					continue
				}
				en.At(event.Time(at), func(*event.Engine) {
					victim := oc.SlotOfHost(h)
					if victim < 0 || oc.NumAlive() <= 10 || crashErr != nil {
						return
					}
					if crashErr = g.Crash(victim); crashErr == nil {
						p.CrashNode(victim)
					}
				})
			}
		}

		prefix := fmt.Sprintf("figR/crash/crash%g/", frac*100)
		repaired := 0
		eng := event.New()
		if err := runFaulty(tr, prefix, "simulate", eng, p, inj, churnHorizonMS, func(t float64) error {
			if crashErr != nil {
				return fmt.Errorf("figR crash=%g: %w", frac, crashErr)
			}
			if corpses := oc.CrashedSlots(); len(corpses) > 0 {
				// Survivors whose neighbor sets the repair is about to touch:
				// the corpses' (stale) neighbors. Notify them afterwards so
				// their probe state reconciles against the rewired edges.
				touched := map[int]bool{}
				for _, corpse := range corpses {
					for _, nb := range oc.Neighbors(corpse) {
						if oc.Alive(nb) {
							touched[nb] = true
						}
					}
				}
				nrep, err := g.Repair(cr)
				if err != nil {
					return err
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
					return fmt.Errorf("figR crash=%g post-repair audit: %w", frac, err)
				}
			}
			always.CheckNow()
			if err := always.Err(); err != nil {
				return fmt.Errorf("figR crash=%g audit: %w", frac, err)
			}
			if tr != nil {
				tr.Series(prefix+"stretch").Sample(t, oc.Stretch(phys))
				tr.Series(prefix+"alive_nodes").Sample(t, float64(oc.NumAlive()))
				tr.Series(prefix+"repaired").Sample(t, float64(repaired))
				sampleFaultCounters(tr, prefix, t, p.Counters)
			}
			return nil
		}, plant); err != nil {
			return nil, err
		}
		if !oc.Connected() {
			return nil, fmt.Errorf("figR crash=%g left the overlay disconnected", frac)
		}
		stretchSeries.Add(frac*100, oc.Stretch(phys))
		repairSeries.Add(frac*100, float64(repaired))
	}
	return []stats.Series{stretchSeries, repairSeries}, nil
}

// figRcTrial runs PROP-G through a transient network partition: at minute
// 20 every node of transit domain 0 is cut off from the rest of the
// backbone for the partition window (default: 15 minutes, override with
// cmd/propsim -partition). Probes crossing the cut time out, retries back
// off, and optimization across the cut stalls; after healing the stretch
// recovers. The logical overlay never loses edges — the partition afflicts
// message delivery, not membership.
func figRcTrial(c *trialCtx) ([]stats.Series, error) {
	const prefix = "figRc/"
	e, o, err := c.gnutellaWorld(prefix)
	if err != nil {
		return nil, err
	}
	phys := e.meanPhysLink()
	p, err := core.New(o, core.DefaultConfig(core.PROPG), e.r.Split())
	if err != nil {
		return nil, err
	}
	fc := lossFaults(trialSeed(c.world, 9100), figRBackgroundLoss)
	fc.PartitionStartMS, fc.PartitionStopMS = churnStartMS, churnStartMS+partitionMS(c.Options)
	fc.Isolated = e.net.PartitionByDomain(0)
	inj, err := faults.NewInjector(fc)
	if err != nil {
		return nil, err
	}

	tr := c.tr
	stretchSeries := stats.Series{Label: "stretch"}
	probeSeries := stats.Series{Label: "probes/node/min"}
	timeoutSeries := stats.Series{Label: "timeouts/node/min"}
	lastProbes, lastTimeouts := uint64(0), uint64(0)
	if err := runFaulty(tr, prefix, "simulate", event.New(), p, inj, churnHorizonMS, func(t float64) error {
		nodes := float64(max(o.NumAlive(), 1))
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
		return nil
	}); err != nil {
		return nil, err
	}
	return []stats.Series{stretchSeries, probeSeries, timeoutSeries}, nil
}

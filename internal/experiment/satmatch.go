package experiment

import (
	"fmt"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/satmatch"
	"repro/internal/stats"
)

// The satmatch experiment compares the paper's protocol against the §2
// structured-system alternative, SAT-Match: relocation by re-joining with a
// fresh identifier near a physically close peer. Both are run over the
// identical Chord ring; the series track routing stretch over time, and the
// notes quantify the cost dimension the paper argues about — SAT-Match
// mints new identifiers (ownership churn and the loss of the old-IDs-only
// anonymity property), PROP-G never does.

func init() {
	registry["satmatch"] = runner{
		describe: "baseline: SAT-Match (relocation jumps) vs PROP-G on Chord",
		run:      runSATMatch,
	}
}

func runSATMatch(opt Options) (*Result, error) {
	type trialExtra struct {
		satRelocations int
	}
	extras := make([]trialExtra, opt.withDefaults().Trials)
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		n := scaled(1000, opt.Scale, 100)
		nLookups := scaled(paperLookups, opt.Scale, 100)

		series := make([]stats.Series, 3)
		labels := []string{"no optimization", "SAT-Match", "PROP-G"}
		for vi, label := range labels {
			// Identical world and ring per variant (same env seed); only
			// the optimizer differs, so the curves share their start.
			e, err := newEnv(netsim.TSLarge(), trialSeed(opt.Seed, trial))
			if err != nil {
				return nil, err
			}
			ring, err := e.buildChord(n, false)
			if err != nil {
				return nil, err
			}
			eng := event.New()
			var satProto *satmatch.Protocol
			protoRNG := rng.New(trialSeed(opt.Seed, 5000+trial*100+vi))
			switch vi {
			case 1:
				p, err := satmatch.New(ring, satmatch.DefaultConfig(), e.oracle.Latency, protoRNG)
				if err != nil {
					return nil, err
				}
				p.Start(eng)
				satProto = p
			case 2:
				p, err := core.New(ring.O, core.DefaultConfig(core.PROPG), protoRNG)
				if err != nil {
					return nil, err
				}
				p.Start(eng)
			}
			// Same workload for every variant of this trial. The workload is
			// host-addressed: SAT-Match relocations kill and recreate slots,
			// so a slot-addressed workload would silently drop every peer
			// that ever jumped and bias the sample toward non-jumpers.
			wr := rng.New(trialSeed(opt.Seed, 7000+trial))
			hosts := ring.O.Hosts()
			type hostLookup struct {
				host int
				key  uint32
			}
			lookups := make([]hostLookup, nLookups)
			for i := range lookups {
				lookups[i] = hostLookup{host: hosts[wr.Intn(len(hosts))], key: chord.RandomKey(wr)}
			}
			measure := func() float64 {
				sum, count := 0.0, 0
				for _, hl := range lookups {
					src := ring.O.SlotOfHost(hl.host)
					if src < 0 {
						continue
					}
					res, err := ring.Lookup(src, hl.key, nil)
					if err != nil || res.Owner == src {
						continue
					}
					direct := e.oracle.Latency(ring.O.HostOf(src), ring.O.HostOf(res.Owner))
					if direct <= 0 {
						continue
					}
					sum += res.Latency / direct
					count++
				}
				if count == 0 {
					return 0
				}
				return sum / float64(count)
			}
			s := stats.Series{Label: label}
			for t := 0.0; t <= horizonMS; t += stepMS {
				eng.RunUntil(event.Time(t))
				s.Add(t/60000, measure())
			}
			if satProto != nil {
				extras[trial].satRelocations = satProto.Relocations
			}
			series[vi] = s
		}
		return series, nil
	})
	if err != nil {
		return nil, err
	}
	totalRelocations := 0
	for _, x := range extras {
		totalRelocations += x.satRelocations
	}
	return &Result{
		ID:     "satmatch",
		Title:  "SAT-Match relocation jumps vs PROP-G exchanges on Chord (routing stretch over time)",
		XLabel: "time (min)",
		YLabel: "stretch",
		Series: mergeTrials(perTrial),
		Notes: []string{
			fmt.Sprintf("SAT-Match minted %d fresh identifiers across %d trials; PROP-G minted 0 (it only permutes existing IDs — §4.1's anonymity argument)",
				totalRelocations, opt.withDefaults().Trials),
			"each SAT-Match relocation also re-assigns keyspace ownership (data movement); a PROP-G swap moves only the two peers' stored keys",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

package experiment

import (
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/satmatch"
	"repro/internal/stats"
)

// satMatchTrial compares the paper's protocol against the §2
// structured-system alternative, SAT-Match: relocation by re-joining with a
// fresh identifier near a physically close peer. Both run over the
// identical Chord ring; the series track routing stretch over time, and
// the trial's tally — the identifiers SAT-Match minted — quantifies the
// cost dimension the paper argues about: SAT-Match mints new identifiers
// (ownership churn and the loss of the old-IDs-only anonymity property),
// PROP-G never does.
func satMatchTrial(c *trialCtx) ([]stats.Series, error) {
	n := scaled(1000, c.Scale, 100)
	nLookups := scaled(paperLookups, c.Scale, 100)
	series := make([]stats.Series, 3)
	for vi, label := range []string{"no optimization", "SAT-Match", "PROP-G"} {
		// Identical world and ring per variant (same world seed); only the
		// optimizer differs, so the curves share their start.
		e, err := newEnv(netsim.TSLarge(), c.world)
		if err != nil {
			return nil, err
		}
		ring, err := e.buildChord(n, false)
		if err != nil {
			return nil, err
		}
		var sat *satmatch.Protocol
		var prop *core.Protocol
		var start []func(*event.Engine)
		protoRNG := rng.New(c.subSeed(5000, vi))
		switch vi {
		case 1:
			if sat, err = satmatch.New(ring, satmatch.DefaultConfig(), e.oracle.Latency, protoRNG); err != nil {
				return nil, err
			}
			start = append(start, sat.Start)
		case 2:
			if prop, err = core.New(ring.O, core.DefaultConfig(core.PROPG), protoRNG); err != nil {
				return nil, err
			}
		}
		// Same workload for every variant of this trial. The workload is
		// host-addressed: SAT-Match relocations kill and recreate slots, so
		// a slot-addressed workload would silently drop every peer that ever
		// jumped and bias the sample toward non-jumpers.
		wr := rng.New(trialSeed(c.Seed, 7000+c.index))
		hosts := ring.O.Hosts()
		lookupHosts, keys := make([]int, nLookups), make([]uint32, nLookups)
		for i := range lookupHosts {
			lookupHosts[i] = hosts[wr.Intn(len(hosts))]
			keys[i] = chord.RandomKey(wr)
		}
		series[vi] = stats.Series{Label: label}
		if err := optimize(event.New(), prop, horizonMS, stepMS, func(t float64) error {
			series[vi].Add(t/60000, e.stretch(ring.O, nLookups, func(i int) (int, int, float64, bool) {
				src := ring.O.SlotOfHost(lookupHosts[i])
				if src < 0 {
					return 0, 0, 0, false
				}
				res, err := ring.Lookup(src, keys[i], nil)
				return src, res.Owner, res.Latency, err == nil
			}))
			return nil
		}, start...); err != nil {
			return nil, err
		}
		if sat != nil {
			c.tally = sat.Relocations
		}
	}
	return series, nil
}

package experiment

import (
	"fmt"

	"repro/internal/kademlia"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/stats"
)

// The kademlia experiment closes the DHT-geometry sweep: ring (Chord),
// torus (CAN), prefix tree (Pastry), and now the XOR metric. Kademlia's
// k-buckets give the proximity baseline maximal freedom — any k contacts
// per XOR subtree qualify — making it the strongest "protocol-specific
// method" PROP-G is compared against and combined with.

func init() {
	registry["kademlia"] = runner{
		describe: "extension: PROP-G on Kademlia, alone and with proximity k-buckets",
		run:      runKademlia,
	}
}

func runKademlia(opt Options) (*Result, error) {
	perTrial, err := forEachTrial(opt.Trials, func(trial int) ([]stats.Series, error) {
		return oneKademliaTrial(opt, trialSeed(opt.Seed, trial))
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "kademlia",
		Title:  "PROP-G on Kademlia (final routing stretch after optimization)",
		XLabel: "method",
		YLabel: "stretch",
		Series: mergeTrials(perTrial),
		Notes: []string{
			"method index: 0=plain, 1=proximity k-buckets only, 2=PROP-G only, 3=proximity + PROP-G",
			"expected shape: all optimized variants beat plain; the combination is at least as good as either alone",
			fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials),
		},
	}, nil
}

func oneKademliaTrial(opt Options, seed uint64) ([]stats.Series, error) {
	e, err := newEnv(netsim.TSLarge(), seed)
	if err != nil {
		return nil, err
	}
	n := scaled(1000, opt.Scale, 100)
	nLookups := scaled(paperLookups, opt.Scale, 100)

	series, err := proximityStudy("Kademlia", e, func(prox bool) (*overlay.Overlay, func(), func() float64, error) {
		cfg := kademlia.DefaultConfig()
		cfg.Proximity = prox
		net, err := kademlia.Build(e.pickHosts(n), cfg, e.oracle.Latency, e.r)
		if err != nil {
			return nil, nil, nil, err
		}
		refresh := func() { net.Refresh(e.oracle.Latency) }
		stretch := func() float64 {
			return drawnRoutingStretch(net.O, e, nLookups, func(src int, r *rng.Rand) (int, float64, error) {
				res, err := net.Lookup(src, kademlia.RandomKey(r), nil)
				return res.Owner, res.Latency, err
			})
		}
		return net.O, refresh, stretch, nil
	})
	if err != nil {
		return nil, err
	}
	return []stats.Series{series}, nil
}

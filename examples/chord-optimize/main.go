// Structured-overlay walkthrough: PROP-G on a Chord DHT, alone and stacked
// on Proximity Neighbor Selection (PNS) — the paper's claim that PROP
// composes with protocol-specific proximity methods because it never
// touches the logical structure.
//
//	go run ./examples/chord-optimize
package main

import (
	"fmt"
	"log"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/satmatch"
)

func main() {
	seedWorld := uint64(2)
	const n = 400
	const lookups = 800

	fmt.Printf("%-18s  %-14s  %-12s  %s\n", "configuration", "stretch", "avg hops", "lookups OK")
	for _, cfg := range []struct {
		name string
		pns  bool
		prop bool
		sat  bool
	}{
		{name: "plain Chord"},
		{name: "PNS", pns: true},
		{name: "PROP-G", prop: true},
		{name: "PNS + PROP-G", pns: true, prop: true},
		{name: "SAT-Match", sat: true},
	} {
		// Fresh but identical world per configuration (same seed).
		r := rng.New(seedWorld)
		net, err := netsim.Generate(netsim.TSLarge(), r)
		if err != nil {
			log.Fatal(err)
		}
		oracle := netsim.NewOracle(net)
		hosts := append([]int(nil), net.StubHosts...)
		r.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		ringCfg := chord.DefaultConfig()
		ringCfg.PNS = cfg.pns
		ring, err := chord.Build(hosts[:n], ringCfg, oracle.Latency, r)
		if err != nil {
			log.Fatal(err)
		}

		if cfg.prop {
			// PROP-G on a DHT exchanges node identifiers: the ring, the
			// finger tables, and every key's owner are all untouched —
			// only which machine stands at each identifier changes.
			p, err := core.New(ring.O, core.DefaultConfig(core.PROPG), r.Split())
			if err != nil {
				log.Fatal(err)
			}
			e := event.New()
			p.Start(e)
			e.RunUntil(30 * 60000)
			// Stabilization: PNS fingers re-pick their nearest candidates
			// against the post-exchange host mapping.
			ring.Refresh()
		}
		if cfg.sat {
			// The §2 baseline: relocation jumps. Same quality ballpark as
			// PROP-G, but every jump mints a fresh identifier and moves
			// keyspace ownership.
			p, err := satmatch.New(ring, satmatch.DefaultConfig(), r.Split())
			if err != nil {
				log.Fatal(err)
			}
			e := event.New()
			p.Start(e)
			e.RunUntil(30 * 60000)
			defer fmt.Printf("\nSAT-Match minted %d fresh identifiers; PROP-G minted none.\n", p.Relocations)
		}

		// Measure routing stretch: routed latency over direct latency.
		wr := rng.New(99)
		sumStretch, sumHops, ok := 0.0, 0, 0
		for i := 0; i < lookups; i++ {
			src := ring.O.AliveSlots()[wr.Intn(n)]
			key := chord.RandomKey(wr)
			res, err := ring.Lookup(src, key, nil)
			if err != nil || res.Owner == src {
				continue
			}
			direct := oracle.Latency(ring.O.HostOf(src), ring.O.HostOf(res.Owner))
			if direct <= 0 {
				continue
			}
			sumStretch += res.Latency / direct
			sumHops += res.Hops
			ok++
		}
		fmt.Printf("%-18s  %-14.2f  %-12.1f  %d/%d\n",
			cfg.name, sumStretch/float64(ok), float64(sumHops)/float64(ok), ok, lookups)
	}
	fmt.Println("\nexpected: every optimizer beats plain; PNS saturates Chord's proximity headroom,")
	fmt.Println("so PNS + PROP-G lands at PNS-level quality (see EXPERIMENTS.md); SAT-Match matches")
	fmt.Println("PROP-G's ballpark but pays for it in minted identifiers and keyspace churn.")
}

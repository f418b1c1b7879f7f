// Command topogen generates a transit-stub physical topology and prints its
// structure and latency statistics — the GT-ITM role in the paper's §5.1.
//
// Usage:
//
//	topogen -preset ts-large [-seed 1] [-sample 2000]
//	topogen -domains 4 -transit 3 -stubs 2 -hosts 10
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/netsim"
	"repro/internal/rng"
)

func main() {
	var (
		preset  = flag.String("preset", "ts-large", "preset: ts-large | ts-small | custom")
		seed    = flag.Uint64("seed", 1, "deterministic seed")
		sample  = flag.Int("sample", 2000, "random host pairs to sample for the latency histogram")
		domains = flag.Int("domains", 4, "custom: transit domains")
		transit = flag.Int("transit", 4, "custom: transit nodes per domain")
		stubs   = flag.Int("stubs", 3, "custom: stub domains per transit node")
		hosts   = flag.Int("hosts", 20, "custom: hosts per stub domain")
		dot     = flag.String("dot", "", "write the topology as Graphviz DOT to this file ('-' for stdout)")
	)
	flag.Parse()
	if *sample < 0 {
		fail(fmt.Errorf("-sample %d, want >= 0", *sample))
	}

	cfg, err := netsim.Preset(*preset)
	if *preset == "custom" {
		cfg, err = netsim.TSLarge(), nil
		cfg.Name = "custom"
		cfg.TransitDomains = *domains
		cfg.TransitNodesPerDomain = *transit
		cfg.StubDomainsPerTransit = *stubs
		cfg.NodesPerStub = *hosts
	}
	if err != nil {
		fail(err)
	}

	r := rng.New(*seed)
	net, err := netsim.Generate(cfg, r)
	if err != nil {
		fail(err)
	}
	fmt.Println(net)
	fmt.Printf("transit domains: %d, transit/domain: %d, stub domains/transit: %d, hosts/stub: %d\n",
		cfg.TransitDomains, cfg.TransitNodesPerDomain, cfg.StubDomainsPerTransit, cfg.NodesPerStub)

	if *dot != "" {
		out := os.Stdout
		if *dot != "-" {
			f, err := os.Create(*dot)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			out = f
		}
		err := net.Graph.WriteDOT(out, cfg.Name,
			func(v int) string {
				if net.Tiers[v] == netsim.TierTransit {
					return fmt.Sprintf("T%d.%d", net.Domain[v], v)
				}
				return fmt.Sprintf("s%d", v)
			},
			func(v int) string {
				if net.Tiers[v] == netsim.TierTransit {
					return "shape=box, style=filled"
				}
				return ""
			})
		if err != nil {
			fail(err)
		}
		if *dot != "-" {
			fmt.Printf("wrote DOT to %s\n", *dot)
		}
	}

	// Host-to-host latency distribution over random pairs (none with -stubs 0).
	if len(net.StubHosts) < 2 {
		return
	}
	oracle := netsim.NewOracle(net)
	lat := make([]float64, 0, *sample)
	for i := 0; i < *sample; i++ {
		u := net.StubHosts[r.Intn(len(net.StubHosts))]
		v := net.StubHosts[r.Intn(len(net.StubHosts))]
		if u == v {
			continue
		}
		lat = append(lat, oracle.Latency(u, v))
	}
	if len(lat) == 0 {
		return
	}
	sort.Float64s(lat)
	pct := func(p float64) float64 { return lat[int(p*float64(len(lat)-1))] }
	sum := 0.0
	for _, l := range lat {
		sum += l
	}
	fmt.Printf("host-pair latency (ms): mean=%.1f p10=%.1f p50=%.1f p90=%.1f max=%.1f (n=%d pairs)\n",
		sum/float64(len(lat)), pct(0.10), pct(0.50), pct(0.90), lat[len(lat)-1], len(lat))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
	os.Exit(1)
}

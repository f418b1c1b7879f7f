// Package netsim models the underlying physical network of the PROP paper's
// evaluation: transit-stub Internet topologies in the style of GT-ITM
// (Zegura, Calvert, Bhattacharjee, INFOCOM '96), three-tier link latencies,
// and a concurrent shortest-path latency oracle that plays the role of the
// probe packets in the authors' simulator.
//
// A transit-stub topology has a backbone of transit domains (each a small
// well-connected mesh of transit routers) and, hanging off every transit
// router, a number of stub domains (denser local networks of end hosts).
// Overlay peers are placed on stub hosts; the latency between any two peers
// is the shortest path through the physical graph.
//
// Key types: Config (the ts-large/ts-small presets), Network, and Oracle
// (oracle.go; its observability counters are part of DESIGN.md §8). The
// inventory entry is DESIGN.md §1.
package netsim

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Tier classifies a physical node.
type Tier uint8

const (
	// TierTransit marks a backbone router inside a transit domain.
	TierTransit Tier = iota
	// TierStub marks an edge host inside a stub domain.
	TierStub
)

// Config parameterizes the transit-stub generator. All counts must be
// positive; Validate reports the first violation.
type Config struct {
	// Name labels the preset (e.g. "ts-large") in tables and traces.
	Name string
	// TransitDomains is the number of backbone domains.
	TransitDomains int
	// TransitNodesPerDomain is the number of routers per transit domain.
	TransitNodesPerDomain int
	// StubDomainsPerTransit is the number of stub domains attached to each
	// transit router.
	StubDomainsPerTransit int
	// NodesPerStub is the number of hosts in each stub domain.
	NodesPerStub int
	// StubExtraEdgeProb is the probability of each candidate chord edge
	// inside a stub domain (on top of a connecting ring).
	StubExtraEdgeProb float64
	// InterDomainEdgeProb is the probability of a backbone edge between any
	// two distinct transit domains beyond the connecting ring.
	InterDomainEdgeProb float64
	// Latencies of the three link classes, in whole milliseconds.
	StubStubMS       float64
	StubTransitMS    float64
	TransitTransitMS float64
}

// TSLarge returns the reconstruction of the paper's ts-large preset: a
// large, well-connected backbone with sparse edge networks — "much like the
// Internet", per the paper. See DESIGN.md §4 for the digit reconstruction.
func TSLarge() Config {
	return Config{
		Name:                  "ts-large",
		TransitDomains:        10,
		TransitNodesPerDomain: 4,
		StubDomainsPerTransit: 3,
		NodesPerStub:          20,
		StubExtraEdgeProb:     0.08,
		InterDomainEdgeProb:   0.5,
		StubStubMS:            5,
		StubTransitMS:         20,
		TransitTransitMS:      50,
	}
}

// TSSmall returns the reconstruction of the paper's ts-small preset: a
// small backbone ("only [a few] transit domains") with dense edge networks
// (many hosts per stub domain). Total host count matches TSLarge closely.
func TSSmall() Config {
	return Config{
		Name:                  "ts-small",
		TransitDomains:        2,
		TransitNodesPerDomain: 4,
		StubDomainsPerTransit: 3,
		NodesPerStub:          100,
		StubExtraEdgeProb:     0.02,
		InterDomainEdgeProb:   1.0,
		StubStubMS:            5,
		StubTransitMS:         20,
		TransitTransitMS:      50,
	}
}

// Preset returns the preset whose Name is name: "ts-large" or "ts-small".
func Preset(name string) (Config, error) {
	for _, c := range []Config{TSLarge(), TSSmall()} {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("netsim: unknown preset %q (want ts-large or ts-small)", name)
}

// Validate reports whether the configuration is structurally sound. It also
// states the underlay's preconditions: link latencies are whole milliseconds,
// so every path sum is exact in float64 (see NewOracle), and the transit
// routers, the core of every generated world, number at most 2 048.
func (c Config) Validate() error {
	wholeMS := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) && x == math.Trunc(x) }
	switch {
	case c.TransitDomains <= 0:
		return fmt.Errorf("netsim: TransitDomains = %d, want > 0", c.TransitDomains)
	case c.TransitNodesPerDomain <= 0:
		return fmt.Errorf("netsim: TransitNodesPerDomain = %d, want > 0", c.TransitNodesPerDomain)
	case c.TotalTransit() > maxCore:
		return fmt.Errorf("netsim: %d transit routers, want <= %d", c.TotalTransit(), maxCore)
	case c.StubDomainsPerTransit < 0:
		return fmt.Errorf("netsim: StubDomainsPerTransit = %d, want >= 0", c.StubDomainsPerTransit)
	case c.NodesPerStub <= 0:
		return fmt.Errorf("netsim: NodesPerStub = %d, want > 0", c.NodesPerStub)
	case !wholeMS(c.StubStubMS) || !wholeMS(c.StubTransitMS) || !wholeMS(c.TransitTransitMS):
		return fmt.Errorf("netsim: link latencies must be positive whole milliseconds (got %v/%v/%v)",
			c.StubStubMS, c.StubTransitMS, c.TransitTransitMS)
	case !(c.StubExtraEdgeProb >= 0 && c.StubExtraEdgeProb <= 1):
		return fmt.Errorf("netsim: StubExtraEdgeProb = %v out of [0,1]", c.StubExtraEdgeProb)
	case !(c.InterDomainEdgeProb >= 0 && c.InterDomainEdgeProb <= 1):
		return fmt.Errorf("netsim: InterDomainEdgeProb = %v out of [0,1]", c.InterDomainEdgeProb)
	}
	return nil
}

// TotalTransit returns the number of transit routers the config generates.
func (c Config) TotalTransit() int { return c.TransitDomains * c.TransitNodesPerDomain }

// TotalStubHosts returns the number of stub hosts the config generates.
func (c Config) TotalStubHosts() int {
	return c.TotalTransit() * c.StubDomainsPerTransit * c.NodesPerStub
}

// TotalNodes returns the total physical node count.
func (c Config) TotalNodes() int { return c.TotalTransit() + c.TotalStubHosts() }

// Network is a generated physical topology.
type Network struct {
	// Graph is the weighted physical graph; weights are milliseconds.
	Graph *graph.Graph
	// Tiers records the tier of every physical node.
	Tiers []Tier
	// StubHosts lists the IDs of all stub hosts, the candidate attachment
	// points for overlay peers.
	StubHosts []int
	// Domain maps each node to its transit-domain index (stub hosts inherit
	// the domain of the transit router they hang off).
	Domain []int
	// StubDomain maps each stub host to a dense stub-domain index, and each
	// transit router to -1.
	StubDomain []int
	// Config echoes the generator parameters.
	Config Config
}

// PickHosts returns k distinct stub hosts drawn uniformly at random by r:
// a shuffled copy of StubHosts, capped at its length. The paper places every
// overlay peer this way ("PROP-G is still effective even when almost all
// physical nodes are chosen").
func (n *Network) PickHosts(k int, r *rng.Rand) []int {
	hosts := append([]int(nil), n.StubHosts...)
	r.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	return hosts[:min(k, len(hosts))]
}

// Generate builds a transit-stub network from cfg using the deterministic
// generator r. The result is always connected.
func Generate(cfg Config, r *rng.Rand) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.TotalNodes()
	g := graph.New(n)
	net := &Network{
		Graph:      g,
		Tiers:      make([]Tier, n),
		Domain:     make([]int, n),
		StubDomain: make([]int, n),
		Config:     cfg,
	}
	for i := range net.StubDomain {
		net.StubDomain[i] = -1
	}

	// Transit routers occupy IDs [0, totalTransit); stub hosts follow.
	totalTransit := cfg.TotalTransit()
	transitOf := func(domain, k int) int { return domain*cfg.TransitNodesPerDomain + k }

	// Intra-domain backbone: full mesh within each transit domain (domains
	// are small, typically 4 routers — GT-ITM uses a connected random graph;
	// a mesh is the dense limit and keeps the backbone low-stretch).
	for d := 0; d < cfg.TransitDomains; d++ {
		for a := 0; a < cfg.TransitNodesPerDomain; a++ {
			net.Tiers[transitOf(d, a)] = TierTransit
			net.Domain[transitOf(d, a)] = d
			for b := a + 1; b < cfg.TransitNodesPerDomain; b++ {
				g.MustAddEdge(transitOf(d, a), transitOf(d, b), cfg.TransitTransitMS)
			}
		}
	}

	// Inter-domain backbone: a ring over domains guarantees connectivity;
	// extra random domain pairs with probability InterDomainEdgeProb model a
	// richer core. Endpoints inside each domain are chosen at random.
	connectDomains := func(d1, d2 int) {
		u := transitOf(d1, r.Intn(cfg.TransitNodesPerDomain))
		v := transitOf(d2, r.Intn(cfg.TransitNodesPerDomain))
		g.MustAddEdge(u, v, cfg.TransitTransitMS)
	}
	if cfg.TransitDomains > 1 {
		for d := 0; d < cfg.TransitDomains; d++ {
			connectDomains(d, (d+1)%cfg.TransitDomains)
		}
		for d1 := 0; d1 < cfg.TransitDomains; d1++ {
			for d2 := d1 + 2; d2 < cfg.TransitDomains; d2++ {
				if d1 == 0 && d2 == cfg.TransitDomains-1 {
					continue // ring already covers this pair
				}
				if r.Bool(cfg.InterDomainEdgeProb) {
					connectDomains(d1, d2)
				}
			}
		}
	}

	// Stub domains: each is a ring of hosts plus random chords, attached to
	// its transit router by one stub-transit uplink (ring ⇒ connected).
	next := totalTransit
	stubDomainIdx := 0
	for d := 0; d < cfg.TransitDomains; d++ {
		for k := 0; k < cfg.TransitNodesPerDomain; k++ {
			router := transitOf(d, k)
			for s := 0; s < cfg.StubDomainsPerTransit; s++ {
				first := next
				for h := 0; h < cfg.NodesPerStub; h++ {
					id := next
					next++
					net.Tiers[id] = TierStub
					net.Domain[id] = d
					net.StubDomain[id] = stubDomainIdx
					net.StubHosts = append(net.StubHosts, id)
					if cfg.NodesPerStub > 1 {
						if h > 0 {
							g.MustAddEdge(id, id-1, cfg.StubStubMS)
						}
						if h == cfg.NodesPerStub-1 && cfg.NodesPerStub > 2 {
							g.MustAddEdge(id, first, cfg.StubStubMS)
						}
					}
				}
				// Chords inside the stub domain.
				for a := first; a < next; a++ {
					for b := a + 2; b < next; b++ {
						if !g.HasEdge(a, b) && r.Bool(cfg.StubExtraEdgeProb) {
							g.MustAddEdge(a, b, cfg.StubStubMS)
						}
					}
				}
				// Uplink from a random host of the stub domain.
				up := first + r.Intn(cfg.NodesPerStub)
				g.MustAddEdge(up, router, cfg.StubTransitMS)
				stubDomainIdx++
			}
		}
	}

	// Structurally impossible given ring construction, but the invariant is
	// cheap to verify and load-bearing for everything else. Checking on the
	// frozen CSR view also warms the cache the latency oracle reads from.
	if !g.Frozen().Connected() {
		return nil, fmt.Errorf("netsim: generated network is not connected")
	}
	return net, nil
}

// MeanLinkLatency returns the average physical link latency, the
// denominator of the paper's stretch metric.
func (n *Network) MeanLinkLatency() float64 { return n.Graph.MeanEdgeWeight() }

// String summarizes the network.
func (n *Network) String() string {
	return fmt.Sprintf("%s: %d nodes (%d transit, %d stub hosts), %d links, mean link %.2f ms",
		n.Config.Name, n.Graph.NumVertices(), n.Config.TotalTransit(),
		len(n.StubHosts), n.Graph.NumEdges(), n.MeanLinkLatency())
}

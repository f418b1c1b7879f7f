package netsim

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/rng"
)

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []Config{TSLarge(), TSSmall()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestPresetShapesMatchPaper(t *testing.T) {
	large, small := TSLarge(), TSSmall()
	// "ts-large has a larger backbone and sparser edge network than ts-small".
	if large.TotalTransit() <= small.TotalTransit() {
		t.Errorf("ts-large backbone (%d) not larger than ts-small (%d)",
			large.TotalTransit(), small.TotalTransit())
	}
	if large.NodesPerStub >= small.NodesPerStub {
		t.Errorf("ts-large edge density (%d/stub) not sparser than ts-small (%d/stub)",
			large.NodesPerStub, small.NodesPerStub)
	}
	// "both of which contain about [the same number of] nodes".
	ratio := float64(large.TotalNodes()) / float64(small.TotalNodes())
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("preset sizes diverge: ts-large %d vs ts-small %d", large.TotalNodes(), small.TotalNodes())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := TSLarge()
	mutations := []func(*Config){
		func(c *Config) { c.TransitDomains = 0 },
		func(c *Config) { c.TransitNodesPerDomain = -1 },
		func(c *Config) { c.StubDomainsPerTransit = -1 },
		func(c *Config) { c.NodesPerStub = 0 },
		func(c *Config) { c.StubStubMS = 0 },
		func(c *Config) { c.StubTransitMS = -5 },
		func(c *Config) { c.TransitTransitMS = 0 },
		func(c *Config) { c.StubStubMS = 2.5 },
		func(c *Config) { c.TransitTransitMS = math.Inf(1) },
		func(c *Config) { c.StubTransitMS = math.NaN() },
		func(c *Config) { c.TransitDomains = maxCore + 1; c.TransitNodesPerDomain = 1 },
		func(c *Config) { c.StubExtraEdgeProb = 1.5 },
		func(c *Config) { c.InterDomainEdgeProb = -0.1 },
		func(c *Config) { c.StubExtraEdgeProb = math.NaN() },
		func(c *Config) { c.InterDomainEdgeProb = math.NaN() },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
		if _, err := Generate(cfg, rng.New(1)); err == nil {
			t.Errorf("mutation %d: Generate accepted invalid config", i)
		}
	}
}

func TestGenerateCounts(t *testing.T) {
	cfg := TSLarge()
	net, err := Generate(cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Graph.NumVertices(); got != cfg.TotalNodes() {
		t.Errorf("nodes = %d, want %d", got, cfg.TotalNodes())
	}
	if got := len(net.StubHosts); got != cfg.TotalStubHosts() {
		t.Errorf("stub hosts = %d, want %d", got, cfg.TotalStubHosts())
	}
	transit := 0
	for _, tier := range net.Tiers {
		if tier == TierTransit {
			transit++
		}
	}
	if transit != cfg.TotalTransit() {
		t.Errorf("transit routers = %d, want %d", transit, cfg.TotalTransit())
	}
}

func TestGenerateConnectedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		cfg := Config{
			Name:                  "prop-test",
			TransitDomains:        1 + r.Intn(5),
			TransitNodesPerDomain: 1 + r.Intn(4),
			StubDomainsPerTransit: 1 + r.Intn(3),
			NodesPerStub:          1 + r.Intn(12),
			StubExtraEdgeProb:     r.Float64() * 0.3,
			InterDomainEdgeProb:   r.Float64(),
			StubStubMS:            5,
			StubTransitMS:         20,
			TransitTransitMS:      50,
		}
		net, err := Generate(cfg, r)
		if err != nil {
			return false
		}
		return net.Graph.Frozen().Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(TSSmall(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(TSSmall(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestLinkLatencyClasses(t *testing.T) {
	cfg := TSLarge()
	net, err := Generate(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range net.Graph.Edges() {
		tu, tv := net.Tiers[e.U], net.Tiers[e.V]
		var want float64
		switch {
		case tu == TierStub && tv == TierStub:
			want = cfg.StubStubMS
		case tu == TierTransit && tv == TierTransit:
			want = cfg.TransitTransitMS
		default:
			want = cfg.StubTransitMS
		}
		if e.W != want {
			t.Fatalf("edge %+v: weight %v, want %v (tiers %d-%d)", e, e.W, want, tu, tv)
		}
	}
}

func TestStubDomainLabels(t *testing.T) {
	cfg := TSSmall()
	net, err := Generate(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, h := range net.StubHosts {
		sd := net.StubDomain[h]
		if sd < 0 {
			t.Fatalf("stub host %d has no stub-domain label", h)
		}
		counts[sd]++
	}
	wantDomains := cfg.TotalTransit() * cfg.StubDomainsPerTransit
	if len(counts) != wantDomains {
		t.Fatalf("stub-domain count = %d, want %d", len(counts), wantDomains)
	}
	for sd, c := range counts {
		if c != cfg.NodesPerStub {
			t.Fatalf("stub domain %d has %d hosts, want %d", sd, c, cfg.NodesPerStub)
		}
	}
	for id, tier := range net.Tiers {
		if tier == TierTransit && net.StubDomain[id] != -1 {
			t.Fatalf("transit router %d has stub-domain label %d", id, net.StubDomain[id])
		}
	}
}

func TestIntraStubCloserThanInterDomain(t *testing.T) {
	net, err := Generate(TSLarge(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(net)
	// Two hosts in the same stub domain must be much closer than two hosts
	// in different transit domains — the premise of the whole paper.
	var sameStub, crossDomain []float64
	hosts := net.StubHosts
	for i := 0; i < 200; i++ {
		u, v := hosts[i%len(hosts)], hosts[(i*37+11)%len(hosts)]
		if u == v {
			continue
		}
		d := o.Latency(u, v)
		switch {
		case net.StubDomain[u] == net.StubDomain[v]:
			sameStub = append(sameStub, d)
		case net.Domain[u] != net.Domain[v]:
			crossDomain = append(crossDomain, d)
		}
	}
	if len(sameStub) == 0 || len(crossDomain) == 0 {
		t.Skip("sample did not cover both classes")
	}
	if mean(sameStub) >= mean(crossDomain) {
		t.Fatalf("same-stub mean %.1f >= cross-domain mean %.1f", mean(sameStub), mean(crossDomain))
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestOracleBasics(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(net)
	if d := o.Latency(5, 5); d != 0 {
		t.Fatalf("self latency = %v", d)
	}
	d1 := o.Latency(net.StubHosts[0], net.StubHosts[50])
	d2 := o.Latency(net.StubHosts[50], net.StubHosts[0])
	if d1 != d2 {
		t.Fatalf("asymmetric latency: %v vs %v", d1, d2)
	}
	if d1 <= 0 || math.IsInf(d1, 1) {
		t.Fatalf("latency = %v", d1)
	}
}

func TestOraclePanicsOutOfRange(t *testing.T) {
	net, _ := Generate(TSSmall(), rng.New(1))
	o := NewOracle(net)
	for _, fn := range []func(){
		func() { o.Latency(-1, 0) },
		func() { o.Latency(0, net.Graph.NumVertices()) },
		func() { o.Row(-1) },
		func() { NewOracle(edgeNet(maxCore + 1)) }, // an unlabelled core past the cap
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range query")
				}
			}()
			fn()
		}()
	}
}

func TestOracleConcurrentAccess(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(net)
	hosts := net.StubHosts
	var wg sync.WaitGroup
	results := make([]float64, 64)
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = o.Latency(hosts[w%2], hosts[300+(w+1)%2])
		}(w)
	}
	wg.Wait()
	// Every query must agree with a sequential recomputation.
	seq := NewOracle(net)
	for w, got := range results {
		want := seq.Latency(hosts[w%2], hosts[300+(w+1)%2])
		if got != want {
			t.Fatalf("worker %d: latency %v, want %v", w, got, want)
		}
	}
}

// TestOracleRowSharedWithLatency: Row returns a fresh slice the caller owns
// — a new backing array on every call, so mutating it changes nothing — and
// agrees with Latency bit for bit in both query directions.
func TestOracleRowSharedWithLatency(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(net)
	src := net.StubHosts[3]
	row := o.Row(src)
	again := o.Row(src)
	if &again[0] == &row[0] || len(again) != len(row) {
		t.Fatal("Row returned the same backing array twice")
	}
	for i := range again {
		again[i] = -1
	}
	for dst := range row {
		if got := o.Latency(src, dst); math.Float64bits(got) != math.Float64bits(row[dst]) {
			t.Fatalf("Latency(%d,%d) = %v, Row says %v", src, dst, got, row[dst])
		}
		if got := o.Latency(dst, src); math.Float64bits(got) != math.Float64bits(row[dst]) {
			t.Fatalf("Latency(%d,%d) = %v, Row says %v", dst, src, got, row[dst])
		}
	}
}

// edgeNet builds a Network over n vertices with the given weighted edges.
func edgeNet(n int, edges ...graph.Edge) *Network {
	g := graph.New(n)
	for _, e := range edges {
		g.MustAddEdge(e.U, e.V, e.W)
	}
	return &Network{Graph: g}
}

// checkOracleExact holds Latency(s,v), Latency(v,s) and Row(s)[v] bit for
// bit to the graphtest Dijkstra row over the whole graph, for every v and
// every source s (all vertices when sources is nil). It returns the oracle.
func checkOracleExact(t *testing.T, net *Network, sources []int) *Oracle {
	t.Helper()
	o := NewOracle(net)
	n := net.Graph.NumVertices()
	if sources == nil {
		for s := 0; s < n; s++ {
			sources = append(sources, s)
		}
	}
	for _, s := range sources {
		ref := graphtest.Dijkstra(n, s, net.Graph.VisitNeighbors, nil)
		row := o.Row(s)
		for v, want := range ref {
			wb := math.Float64bits(want)
			if got := o.Latency(s, v); math.Float64bits(got) != wb {
				t.Fatalf("Latency(%d,%d) = %v, want %v", s, v, got, want)
			}
			if got := o.Latency(v, s); math.Float64bits(got) != wb {
				t.Fatalf("Latency(%d,%d) = %v, want %v", v, s, got, want)
			}
			if math.Float64bits(row[v]) != wb {
				t.Fatalf("Row(%d)[%d] = %v, want %v", s, v, row[v], want)
			}
		}
	}
	return o
}

// TestOracleAnchorsExact: every answer is the Dijkstra row's exact bits
// whichever nodes the oracle decomposes, and exactly the hosts of pendant
// stub domains are decomposed — every stub host of a generated world, none
// where a domain has a second exit or none, hangs off another such domain,
// or there are no labels. A pendant host is anchored at a router (generated
// worlds) or at the exit's outer end, priced by that node's core-table row;
// every other node is its own anchor at +0 and its own row.
func TestOracleAnchorsExact(t *testing.T) {
	gen := func(cfg Config) *Network {
		net, err := Generate(cfg, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	stubs := func(net *Network) map[int]bool {
		m := map[int]bool{}
		for _, h := range net.StubHosts {
			m[h] = true
		}
		return m
	}
	set := func(vs ...int) map[int]bool {
		m := map[int]bool{}
		for _, v := range vs {
			m[v] = true
		}
		return m
	}
	e := func(u, v int, w float64) graph.Edge { return graph.Edge{U: u, V: v, W: w} }
	labeled := func(labels []int, edges ...graph.Edge) *Network {
		net := edgeNet(len(labels), edges...)
		net.StubDomain = labels
		return net
	}
	large, small, scale := gen(TSLarge()), gen(TSSmall()), gen(ScaleTS(4096))
	var sampled []int
	for i, n := 0, scale.Graph.NumVertices(); i < 64; i++ {
		sampled = append(sampled, i*n/64)
	}
	// Vertices 0 and 1 are routers 50 ms apart; stub hosts follow.
	r := e(0, 1, 50)
	cutOff := labeled([]int{-1, -1, 0, 0, 0}, r, e(2, 3, 5), e(0, 2, 20)) // host 4 has no link
	long := labeled([]int{-1, -1, 0, 0, 0}, r, e(2, 3, 40000), e(3, 4, 40000), e(0, 2, 20))
	cases := []struct {
		name    string
		net     *Network
		sources []int
		pendant map[int]bool
	}{
		{"ts-large", large, nil, stubs(large)},
		{"ts-small", small, nil, stubs(small)},
		{"ScaleTS(4096) sampled", scale, sampled, stubs(scale)},
		{"second exit, no exit", labeled([]int{-1, -1, 0, 0, 1, 1, 2, 2}, r,
			e(2, 3, 5), e(0, 2, 20), e(1, 3, 20), e(4, 5, 5), e(6, 7, 5), e(1, 7, 20)), nil, set(6, 7)},
		{"mutually attached", labeled([]int{-1, -1, 0, 0, 1, 1}, r, e(2, 3, 5), e(4, 5, 5), e(3, 4, 20)), nil, nil},
		{"off a two-exit domain", labeled([]int{-1, -1, 0, 0, 1, 1}, r,
			e(2, 3, 5), e(0, 2, 20), e(3, 4, 20), e(4, 5, 5)), nil, set(4, 5)},
		{"cut-off host", cutOff, nil, set(2, 3, 4)},
		{"2.5 ms link", labeled([]int{-1, -1, 0, 0}, r, e(2, 3, 2.5), e(0, 2, 20)), nil, set(2, 3)},
		{"nil StubDomain", edgeNet(4, r, e(2, 3, 5), e(0, 2, 20)), nil, nil},
		{"40 000 ms intra links", long, nil, set(2, 3, 4)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := checkOracleExact(t, c.net, c.sources)
			for v, nd := range o.nodes {
				if (nd.Dom >= 0) != c.pendant[v] {
					t.Fatalf("node %d: pendant = %v, want %v", v, nd.Dom >= 0, c.pendant[v])
				}
				if nd.Dom < 0 && (nd.Router != int32(v) || math.Float64bits(nd.Off) != 0 || nd.Core != nd.Idx) {
					t.Fatalf("node %d: anchor %d at %v, row %d, want itself at +0 in its own row %d", v, nd.Router, nd.Off, nd.Core, nd.Idx)
				}
				if nd.Dom >= 0 && (nd.Core != o.nodes[nd.Router].Core || c.net.Tiers != nil && c.net.Tiers[nd.Router] != TierTransit) {
					t.Fatalf("host %d: anchor %d (row %d) is not a transit router's row", v, nd.Router, nd.Core)
				}
			}
		})
	}

	// The cut-off host's +Inf comes through its offset and through its
	// domain's table.
	o := NewOracle(cutOff)
	h, up := o.nodes[4], o.nodes[2]
	tb := o.intra[h.Dom]
	if d := tb.d[int(h.Idx)*tb.k+int(up.Idx)]; !math.IsInf(h.Off, 1) || !math.IsInf(d, 1) {
		t.Fatalf("cut-off host: offset %v, table entry %v, want +Inf", h.Off, d)
	}
}

// oracleFuzzWeights are the link weights FuzzOracleRows draws from: whole
// milliseconds, a zero, a fraction and a weight whose sums pass 65 535 —
// every one dyadic and small, so path sums are exact (see NewOracle).
var oracleFuzzWeights = [...]float64{0, 0.5, 1, 5, 20, 50, 40000}

// FuzzOracleRows: bytes become a labelled graph of at most 24 vertices
// (first byte: vertex count n; then n stub-domain labels, byte%4 − 1, so 0 is
// −1 and missing bytes are too; then one edge per u, v, weight-index
// triple), and every pair is held to the reference Dijkstra row's bits
// through Latency and Row, whichever domains the labels make pendant.
func FuzzOracleRows(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 1, 3, 1, 2, 3, 2, 3, 4, 3, 4, 6})             // path
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5}) // star
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 1, 3, 2, 3, 4})                                  // two components
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0})                         // all-zero
	// Router 0 with two pendant pairs {1,2} and {3,4} hanging off it.
	f.Add([]byte{4, 0, 1, 1, 2, 2, 1, 2, 3, 2, 0, 4, 3, 4, 3, 3, 0, 4})
	// Routers 0 and 3 with one domain {1,2} linked to both: two exits.
	f.Add([]byte{3, 0, 1, 1, 0, 0, 3, 5, 1, 2, 3, 1, 0, 4, 2, 3, 4})
	// Domains {0,1} and {2,3} joined only to each other.
	f.Add([]byte{3, 1, 1, 2, 2, 0, 1, 3, 2, 3, 3, 1, 2, 4})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		n := 1 + int(b[0])%24
		labels := make([]int, n)
		for i := range labels {
			labels[i] = -1
			if 1+i < len(b) {
				labels[i] = int(b[1+i])%4 - 1
			}
		}
		g := graph.New(n)
		for i := 1 + n; i+2 < len(b); i += 3 {
			if u, v := int(b[i])%n, int(b[i+1])%n; u != v {
				g.MustAddEdge(u, v, oracleFuzzWeights[int(b[i+2])%len(oracleFuzzWeights)])
			}
		}
		o := NewOracle(&Network{Graph: g, StubDomain: labels})
		for u := 0; u < n; u++ {
			ref := graphtest.Dijkstra(n, u, g.VisitNeighbors, nil)
			for v, want := range ref {
				if got := o.Latency(u, v); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Latency(%d,%d) = %v, want %v", u, v, got, want)
				}
			}
			for v, got := range o.Row(u) {
				if math.Float64bits(got) != math.Float64bits(ref[v]) {
					t.Fatalf("Row(%d)[%d] = %v, want %v", u, v, got, ref[v])
				}
			}
		}
	})
}

// TestOracleIsSnapshot: the oracle describes the physical graph as it stood
// at NewOracle. Cutting a host's links afterwards changes none of its
// answers; a fresh oracle over the mutated graph does see the cut.
func TestOracleIsSnapshot(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(net)
	src, cut := net.StubHosts[0], net.StubHosts[2]
	before := o.Row(src)
	if math.IsInf(before[cut], 1) {
		t.Fatalf("host %d was unreachable before the cut", cut)
	}
	for _, v := range net.Graph.Neighbors(cut) {
		net.Graph.RemoveEdge(cut, v)
	}
	for dst, want := range before {
		if got := o.Latency(src, dst); got != want {
			t.Fatalf("Latency(%d,%d) moved after RemoveEdge: %v, was %v", src, dst, got, want)
		}
	}
	if d := NewOracle(net).Latency(src, cut); !math.IsInf(d, 1) {
		t.Fatalf("fresh oracle over the mutated graph still reaches %d: %v", cut, d)
	}
}

// TestOracleWarmReadsAllocationFree: a point query, in either direction,
// within a stub domain, across stub domains or from a router, is array reads
// — no allocation.
func TestOracleWarmReadsAllocationFree(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(net)
	h := net.StubHosts
	for _, p := range [][2]int{{h[0], h[7]}, {h[0], h[len(h)-1]}, {0, h[7]}} {
		var sink float64
		if a := testing.AllocsPerRun(100, func() { sink += o.Latency(p[0], p[1]) + o.Latency(p[1], p[0]) }); a != 0 {
			t.Errorf("Latency(%d,%d) allocates %v per run, want 0", p[0], p[1], a)
		}
		_ = sink
	}
}

func TestNetworkString(t *testing.T) {
	net, err := Generate(TSLarge(), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	s := net.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

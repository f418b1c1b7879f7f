package shard

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rng"
)

// tinyNet is the test world: 8 transit domains of 2 routers, one 16-host
// stub ring per router — 256 peers, small enough for exact AL, with enough
// domains to run 1/2/4/8 shards.
func tinyNet() netsim.Config {
	return netsim.Config{
		Name:                  "ts-tiny-shard",
		TransitDomains:        8,
		TransitNodesPerDomain: 2,
		StubDomainsPerTransit: 1,
		NodesPerStub:          16,
		StubExtraEdgeProb:     0.1,
		InterDomainEdgeProb:   0.5,
		StubStubMS:            5,
		StubTransitMS:         20,
		TransitTransitMS:      50,
	}
}

func tinyConfig(shards int, seed uint64) Config {
	net := tinyNet()
	return Config{
		Shards: shards,
		Seed:   seed,
		Net:    &net,
	}
}

// runTiny executes one run and returns the serialized metrics stream plus
// the engine.
func runTiny(t *testing.T, cfg Config) ([]byte, *Engine) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New(obs.NewManifest("shard-test", cfg.Seed, 1, 1))
	if err := e.Run(reg.Trial(0), "prop_"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), e
}

// TestShardCountInvariance is the regression behind the determinism
// contract (DESIGN.md §12) and a bit beyond it: the engine promises
// byte-identical metrics streams for same seed + same shard count, and
// delivers them for same seed at ANY admissible shard count. All run
// tallies except the partition-dependent CrossShard (and the window count)
// must agree too.
func TestShardCountInvariance(t *testing.T) {
	var want []byte
	var wantStats Stats
	for _, shards := range []int{1, 2, 4, 8} {
		got, e := runTiny(t, tinyConfig(shards, 42))
		stats := e.Stats()
		if stats.Exchanges == 0 {
			t.Fatalf("shards=%d: no exchanges committed", shards)
		}
		norm := stats
		norm.Shards, norm.CrossShard, norm.Epochs = 0, 0, 0
		if shards == 1 {
			want, wantStats = got, norm
			if stats.CrossShard != 0 {
				t.Fatalf("1 shard recorded %d cross-shard messages", stats.CrossShard)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shards=%d: metrics stream differs from 1-shard run (%d vs %d bytes)", shards, len(got), len(want))
		}
		if norm != wantStats {
			t.Errorf("shards=%d: stats %+v differ from 1-shard stats %+v", shards, norm, wantStats)
		}
		if stats.CrossShard == 0 {
			t.Errorf("shards=%d: no cross-shard traffic — partition not exercised", shards)
		}
	}
}

// TestSameSeedSameBytes is the contract as literally stated: two runs with
// the same seed and shard count produce byte-identical streams.
func TestSameSeedSameBytes(t *testing.T) {
	a, _ := runTiny(t, tinyConfig(4, 7))
	b, _ := runTiny(t, tinyConfig(4, 7))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, same shard count: streams differ")
	}
	c, _ := runTiny(t, tinyConfig(4, 8))
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestOptimizationProgress checks the engine does its actual job: the
// exact average latency of the final placement is below the initial one,
// and the landmark estimate tracks the exact value within the documented
// sketch bound.
func TestOptimizationProgress(t *testing.T) {
	cfg := tinyConfig(8, 3)
	cfg.ExactAL = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, err := metrics.AverageLatencyFrom(e.FloodSource())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New(obs.NewManifest("shard-progress", 3, 1, 1))
	if err := e.Run(reg.Trial(0), ""); err != nil {
		t.Fatal(err)
	}
	after, err := metrics.AverageLatencyFrom(e.FloodSource())
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("AL did not improve: %.2f -> %.2f ms", before, after)
	}
	st := e.Stats()
	if st.Exchanges == 0 || st.Probes == 0 {
		t.Fatalf("inactive run: %+v", st)
	}
	if t.Failed() {
		t.Logf("stats: %+v", st)
	}
}

// TestEstimatorTracksExact pins the in-stream error series: with ExactAL
// on, every sampled relative error stays within 3× the sketch's documented
// 10% bound (the landmark plane feeding the estimator is itself an upper
// bound, so allow slack over the pure-sketch property test in metrics).
func TestEstimatorTracksExact(t *testing.T) {
	cfg := tinyConfig(2, 11)
	cfg.ExactAL = true
	cfg.ALSources = 32
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New(obs.NewManifest("shard-err", 11, 1, 1))
	tr := reg.Trial(0)
	if err := e.Run(tr, ""); err != nil {
		t.Fatal(err)
	}
	ts, vs := tr.Series("al_err_pct").Points()
	if len(vs) == 0 {
		t.Fatal("no al_err_pct samples")
	}
	for i, v := range vs {
		if math.IsNaN(v) || v > 30 {
			t.Errorf("t=%v: estimator error %.2f%% out of bounds", ts[i], v)
		}
	}
}

// TestLookaheadFloor cross-checks the lookahead against the latency plane:
// every cross-domain peer pair's estimated latency must clear the epoch
// bound, or the engine's correctness argument is void — also on a world whose
// links are not whole milliseconds — and estimates are symmetric. Both worlds
// also join the two latency consumers: no estimate undercuts the oracle's
// exact latency between the peers' hosts.
func TestLookaheadFloor(t *testing.T) {
	frac := tinyNet()
	frac.StubStubMS, frac.StubTransitMS, frac.TransitTransitMS = 2.5, 17.5, 42.5
	for _, net := range []netsim.Config{tinyNet(), frac} {
		cfg := tinyConfig(8, 1)
		cfg.Net = &net
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e.LookaheadMS() != net.CrossDomainFloorMS() {
			t.Fatalf("lookahead %v, want %v", e.LookaheadMS(), net.CrossDomainFloorMS())
		}
		world, err := netsim.Generate(net, rng.New(cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		o := netsim.NewOracle(world)
		domain := func(p int32) int32 { return e.routerDomain[e.up[p].router] }
		for p := int32(0); p < int32(e.Peers()); p++ {
			for q := int32(0); q < int32(e.Peers()); q++ {
				pq := e.estLat(p, q)
				if qp := e.estLat(q, p); math.Float64bits(pq) != math.Float64bits(qp) {
					t.Fatalf("%v ms links: estLat(%d,%d) = %v, reversed %v", net.StubStubMS, p, q, pq, qp)
				}
				if domain(p) != domain(q) && pq < e.LookaheadMS() {
					t.Fatalf("%v ms links: peers %d,%d: cross-domain estimate %.3f below lookahead %.3f",
						net.StubStubMS, p, q, pq, e.LookaheadMS())
				}
				if exact := o.Latency(world.StubHosts[p], world.StubHosts[q]); pq < exact {
					t.Fatalf("%v ms links: peers %d,%d: estimate %v below the oracle's %v", net.StubStubMS, p, q, pq, exact)
				}
			}
		}
	}
}

// TestConfigValidation covers the rejection paths and the single-use
// guard.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		tinyConfig(9, 1),  // more shards than domains
		tinyConfig(-1, 1), // negative shards
	}
	walk := tinyConfig(2, 1)
	walk.WalkHops = -1
	neg := tinyConfig(2, 1)
	neg.SampleEveryMS = -5
	bad = append(bad, walk, neg)
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	e, err := New(tinyConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(nil, ""); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestDefaultWorld checks the ScaleTS path: Config.Peers alone builds a
// world of at least that many peers with one engine per transit domain.
func TestDefaultWorld(t *testing.T) {
	e, err := New(Config{Peers: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if e.Peers() < 16 || e.ShardCount() != netsim.ScaleTransitDomains {
		t.Fatalf("peers=%d shards=%d, want >=16 peers and %d shards",
			e.Peers(), e.ShardCount(), netsim.ScaleTransitDomains)
	}
}

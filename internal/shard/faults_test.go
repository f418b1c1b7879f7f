package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// faultyConfig is the everything-on fault schedule over the tiny world:
// loss, duplication, jitter, a domain partition, and crash-stop churn, all
// at once.
func faultyConfig(shards int, seed uint64) Config {
	cfg := tinyConfig(shards, seed)
	cfg.Faults = &FaultConfig{
		LossProb:         0.05,
		DupProb:          0.10,
		JitterMS:         5,
		PartitionStartMS: 3 * 60000,
		PartitionStopMS:  6 * 60000,
		CrashFrac:        0.10,
	}
	return cfg
}

// TestFaultShardCountInvariance is the tentpole contract: with every
// fault knob set — per-message loss, duplication, jitter, a domain
// partition, and crash-stop churn — the metrics stream and every
// shard-count-invariant tally must still be byte-identical across 1, 2,
// 4, and 8 shards, because fault verdicts are stateless hashes and drops
// are pure functions of the processed event prefix.
func TestFaultShardCountInvariance(t *testing.T) {
	var want []byte
	var wantStats Stats
	for _, shards := range []int{1, 2, 4, 8} {
		got, e := runTiny(t, faultyConfig(shards, 42))
		stats := e.Stats()
		norm := stats
		norm.Shards, norm.CrossShard, norm.Epochs = 0, 0, 0
		if shards == 1 {
			want, wantStats = got, norm
			// The schedule must actually exercise every fault class.
			checks := []struct {
				name string
				v    uint64
			}{
				{"Lost", stats.Lost},
				{"DupsSent", stats.DupsSent},
				{"PartitionDrops", stats.PartitionDrops},
				{"Crashes", stats.Crashes},
				{"DeadDrops", stats.DeadDrops},
				{"ProbeTimeouts", stats.ProbeTimeouts},
				{"Evictions", stats.Evictions},
				{"Exchanges", stats.Exchanges},
			}
			for _, c := range checks {
				if c.v == 0 {
					t.Errorf("fault class not exercised: %s = 0 (stats %+v)", c.name, stats)
				}
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shards=%d: faulty metrics stream differs from 1-shard run (%d vs %d bytes)", shards, len(got), len(want))
		}
		if norm != wantStats {
			t.Errorf("shards=%d: stats %+v differ from 1-shard stats %+v", shards, norm, wantStats)
		}
	}
}

// TestFaultZeroKnobsByteIdentical pins that a nil schedule is the
// all-zero one: the two streams are equal byte for byte. Both carry the
// crash/churn series, since every run takes one path, and the zero
// schedule drops, crashes and evicts nothing. Its only timeouts are the
// aborts of refused proposals (a refusal is advisory), one each.
func TestFaultZeroKnobsByteIdentical(t *testing.T) {
	plain, pe := runTiny(t, tinyConfig(4, 9))
	zero := tinyConfig(4, 9)
	zero.Faults = &FaultConfig{}
	got, ze := runTiny(t, zero)
	if !bytes.Equal(plain, got) {
		t.Fatal("all-zero fault schedule perturbed the metrics stream")
	}
	st := pe.Stats()
	if zs := ze.Stats(); st != zs {
		t.Fatalf("all-zero fault schedule perturbed stats: %+v vs %+v", st, zs)
	}
	last := map[string]float64{}
	for _, line := range bytes.Split(bytes.TrimSpace(plain), []byte("\n")) {
		var rec struct {
			Kind, Name string
			Value      float64
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind != "sample" {
			continue
		}
		last[rec.Name] = rec.Value
	}
	if st.VerRejected == 0 {
		t.Fatalf("no proposal refused, so no abort exercised: %+v", st)
	}
	for name, want := range map[string]float64{"crashed": 0, "lost": 0, "evictions": 0, "timeouts": float64(st.VerRejected)} {
		if got, ok := last["prop_"+name]; !ok || got != want {
			t.Errorf("series %q ends at %v (present %v), want %v", name, got, ok, want)
		}
	}
	if st.ProbeTimeouts != 0 || st.CommitTimeouts != st.VerRejected {
		t.Errorf("zero schedule: %d probe timeouts, %d commit aborts for %d refusals", st.ProbeTimeouts, st.CommitTimeouts, st.VerRejected)
	}
}

// TestFaultSeedSensitivity: the fault schedule is seed-driven, so a
// different seed must produce a different faulty stream.
func TestFaultSeedSensitivity(t *testing.T) {
	a, _ := runTiny(t, faultyConfig(2, 5))
	b, _ := runTiny(t, faultyConfig(2, 6))
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical faulty streams")
	}
}

// TestJitterRegimes pins both documented jitter regimes: below the
// conservative lookahead floor (90 ms on the tiny world) and far above
// it. Jitter is strictly additive, so in both regimes messages can only
// arrive later than the floor — a long-jittered message simply waits in
// its queue past the current epoch window — and shard-count invariance
// must hold unchanged.
func TestJitterRegimes(t *testing.T) {
	for _, jitter := range []float64{5, 200} {
		var want []byte
		for _, shards := range []int{1, 4} {
			cfg := tinyConfig(shards, 13)
			cfg.Faults = &FaultConfig{JitterMS: jitter}
			got, e := runTiny(t, cfg)
			if shards == 1 {
				want = got
				if st := e.Stats(); st.Exchanges == 0 {
					t.Errorf("jitter=%v: no exchanges committed", jitter)
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("jitter=%v ms: stream differs across shard counts", jitter)
			}
		}
	}
}

// TestCrashStopAccounting checks the churn bookkeeping end to end: every
// scheduled victim crashed, the quiesced alive-peer slot claims are
// injective (Run's invariant check), the measurement plane dropped
// exactly the vacated slots, and the stream carries the crash/churn event
// series. Every crash falls in the middle third of the horizon: the
// "crashed" series reads 0 at every sample before H/3 and its final value
// at every sample from 2H/3 on.
func TestCrashStopAccounting(t *testing.T) {
	cfg := tinyConfig(4, 21)
	cfg.Faults = &FaultConfig{CrashFrac: 0.2}
	cfg.SampleEveryMS = 30000
	stream, e := runTiny(t, cfg)
	st := e.Stats()
	if st.Crashes == 0 {
		t.Fatal("CrashFrac=0.2 produced no crashes")
	}
	n := e.Peers()
	if st.Crashes > uint64(n/2) {
		t.Fatalf("%d crashes out of %d peers — schedule far off its 20%% rate", st.Crashes, n)
	}
	fs := e.FloodSource()
	alive := fs.AliveSlots()
	if got, want := len(alive), n-int(st.Crashes); got != want {
		t.Fatalf("alive slots = %d, want %d (%d peers - %d crashes)", got, want, n, st.Crashes)
	}
	for _, name := range []string{"crashed", "lost", "timeouts", "evictions"} {
		if !strings.Contains(string(stream), "prop_"+name) {
			t.Errorf("churn stream missing series %q", "prop_"+name)
		}
	}
	h := e.cfg.HorizonMS
	before, after := 0, 0
	for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		var rec struct {
			Kind, Name string
			TMS        float64 `json:"t_ms"`
			Value      float64
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind != "sample" || rec.Name != "prop_crashed" {
			continue
		}
		switch {
		case rec.TMS < h/3:
			before++
			if rec.Value != 0 {
				t.Errorf("crashed = %v at t = %v ms, before the window opens at %v", rec.Value, rec.TMS, h/3)
			}
		case rec.TMS >= 2*h/3:
			after++
			if rec.Value != float64(st.Crashes) {
				t.Errorf("crashed = %v at t = %v ms, after the window closed at %v; want the final %d", rec.Value, rec.TMS, 2*h/3, st.Crashes)
			}
		}
	}
	if before == 0 || after == 0 {
		t.Errorf("%d samples before H/3 and %d from 2H/3 on, want both > 0", before, after)
	}
}

// TestCommitAbortUnderLossAndChurn drives the two-phase swap through its
// hostile paths — proposals and rejections dropped, counterparts crashing
// mid-commit — and relies on Run's invariant check for the safety half:
// alive slot claims stay injective and no peer quiesces locked. The
// tallies confirm the abort paths actually fired.
func TestCommitAbortUnderLossAndChurn(t *testing.T) {
	cfg := tinyConfig(4, 31)
	cfg.Faults = &FaultConfig{LossProb: 0.20, CrashFrac: 0.15}
	_, e := runTiny(t, cfg)
	st := e.Stats()
	if st.CommitTimeouts == 0 {
		t.Errorf("20%% loss produced no commit aborts: %+v", st)
	}
	if st.ProbeTimeouts == 0 {
		t.Errorf("20%% loss produced no probe timeouts: %+v", st)
	}
	if st.Exchanges == 0 {
		t.Errorf("optimization died entirely under faults: %+v", st)
	}
}

// TestPartitionBeyond256Domains: the partition cut compares full domain
// indices, so in a 258-domain world, cutting off domain 0 separates it from
// domain 256 and leaves 256 joined to 2 (a byte-wide domain index wraps 256
// onto 0). One host per domain makes peer d domain d's host.
func TestPartitionBeyond256Domains(t *testing.T) {
	net := netsim.Config{
		Name:                  "ts-258-domains",
		TransitDomains:        258,
		TransitNodesPerDomain: 1,
		StubDomainsPerTransit: 1,
		NodesPerStub:          1,
		StubStubMS:            5,
		StubTransitMS:         20,
		TransitTransitMS:      50,
	}
	e, err := New(Config{Shards: 1, Seed: 1, Net: &net, Faults: &FaultConfig{PartitionStopMS: 60000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p, q int32
		cut  bool
	}{{0, 256, true}, {256, 2, false}, {0, 2, true}, {1, 257, false}} {
		if got := e.partitioned(c.p, c.q, 0); got != c.cut {
			t.Errorf("domains %d↔%d: partitioned = %v, want %v", c.p, c.q, got, c.cut)
		}
	}
}

// TestFaultConfigValidation covers the schedule rejection paths.
func TestFaultConfigValidation(t *testing.T) {
	bad := []FaultConfig{
		{LossProb: 1.5},
		{DupProb: -0.1},
		{JitterMS: -1},
		{JitterMS: math.Inf(1)},
		{CrashFrac: 1.01},
		{PartitionStartMS: 10, PartitionStopMS: 5},
		{PartitionStartMS: math.NaN(), PartitionStopMS: 5},
		{PartitionStartMS: 0, PartitionStopMS: math.Inf(1)},
	}
	for i, fc := range bad {
		cfg := tinyConfig(2, 1)
		f := fc
		cfg.Faults = &f
		if _, err := New(cfg); err == nil {
			t.Errorf("fault config %d accepted: %+v", i, fc)
		}
	}
}

// TestVersionsCountExchanges holds the swap transaction's conservation law
// under loss and duplication with no crash-stop: every executed exchange
// bumps exactly two versions — the acceptor's Prepare and the proposer's
// Acked — so Σ Version = 2 × Exchanges once the run drained. At DupProb 1
// every proposal arrives twice, and each executed one's second copy must
// have met the moved version (VerRejected); a guard that took it would
// count an exchange the proposer never acknowledged.
func TestVersionsCountExchanges(t *testing.T) {
	for _, dup := range []float64{0.1, 1} {
		cfg := tinyConfig(4, 41)
		cfg.Faults = &FaultConfig{LossProb: 0.1, DupProb: dup}
		_, e := runTiny(t, cfg)
		st := e.Stats()
		var sum uint64
		for i := range e.txn {
			sum += uint64(e.txn[i].Version())
		}
		if st.Exchanges == 0 || sum != 2*st.Exchanges {
			t.Errorf("dup %v: Σ version %d, want 2 × %d exchanges", dup, sum, st.Exchanges)
		}
		if dup == 1 && st.VerRejected < st.Exchanges {
			t.Errorf("dup 1: %d proposals refused, want one per executed exchange (%d)", st.VerRejected, st.Exchanges)
		}
	}
}

package livesim

import (
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/rng"
)

func lat(a, b int) float64 { return math.Abs(float64(a-b)) + 1 }

func buildWorld(t testing.TB, n int, seed uint64, initTimer float64) (*chord.Ring, *core.Protocol) {
	t.Helper()
	r := rng.New(seed)
	hosts := r.Perm(n * 10)[:n]
	ring, err := chord.Build(hosts, chord.DefaultConfig(), lat, r)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.PROPG)
	cfg.InitTimerMS = initTimer
	p, err := core.New(ring.O, cfg, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	return ring, p
}

func TestNewValidation(t *testing.T) {
	ring, p := buildWorld(t, 32, 1, 1000)
	if _, err := New(nil, p); err == nil {
		t.Error("nil ring accepted")
	}
	if _, err := New(ring, nil); err == nil {
		t.Error("nil protocol accepted")
	}
	ring2, _ := buildWorld(t, 32, 2, 1000)
	if _, err := New(ring2, p); err == nil {
		t.Error("mismatched overlay accepted")
	}
	if _, err := New(ring, p); err != nil {
		t.Fatal(err)
	}
}

func TestLookupsWithoutChurnAreCorrect(t *testing.T) {
	ring, p := buildWorld(t, 64, 3, 1e12) // timer so large no probe fires
	sim, err := New(ring, p)
	if err != nil {
		t.Fatal(err)
	}
	e := event.New()
	r := rng.New(9)
	const lookups = 200
	for i := 0; i < lookups; i++ {
		sim.IssueLookup(e, event.Time(i), r.Intn(64), chord.RandomKey(r))
	}
	for e.Step() {
	}
	sum := sim.Summarize()
	if sum.Lookups != lookups || sum.Correct != lookups {
		t.Fatalf("quiet ring: %+v", sum)
	}
	if sum.Redirects != 0 || sum.Reresolves != 0 {
		t.Fatalf("redirects on a quiet ring: %+v", sum)
	}
	if sum.MeanHops < 1 || sum.MeanHops > 10 {
		t.Fatalf("implausible hop count: %+v", sum)
	}
}

func TestLookupsDuringHeavyExchangeAllComplete(t *testing.T) {
	// Aggressive probing (10ms timer) so many exchanges race the lookups.
	ring, p := buildWorld(t, 128, 7, 10)
	sim, err := New(ring, p)
	if err != nil {
		t.Fatal(err)
	}
	e := event.New()
	p.Start(e)
	r := rng.New(5)
	const lookups = 500
	for i := 0; i < lookups; i++ {
		sim.IssueLookup(e, event.Time(float64(i)*3), r.Intn(128), chord.RandomKey(r))
	}
	e.RunUntil(60000)
	sum := sim.Summarize()
	if sum.Lookups != lookups {
		t.Fatalf("lookups lost: %+v", sum)
	}
	if sum.Correct != lookups {
		t.Fatalf("incorrect lookups under churn of exchanges: %+v", sum)
	}
	if p.Counters.Exchanges == 0 {
		t.Fatal("test vacuous: no exchanges happened")
	}
	t.Logf("exchanges=%d redirects=%d reresolves=%d", p.Counters.Exchanges, sum.Redirects, sum.Reresolves)
}

func TestCounterpartCacheIsExercised(t *testing.T) {
	// With a huge volume of in-flight lookups and constant exchanges, at
	// least some messages must arrive stale and take the redirect path.
	ring, p := buildWorld(t, 256, 11, 5)
	sim, err := New(ring, p)
	if err != nil {
		t.Fatal(err)
	}
	e := event.New()
	p.Start(e)
	r := rng.New(13)
	const lookups = 2000
	for i := 0; i < lookups; i++ {
		sim.IssueLookup(e, event.Time(float64(i)), r.Intn(256), chord.RandomKey(r))
	}
	e.RunUntil(120000)
	sum := sim.Summarize()
	if sum.Lookups != lookups || sum.Correct != lookups {
		t.Fatalf("completion/correctness: %+v", sum)
	}
	if sum.Redirects+sum.Reresolves == 0 {
		t.Fatalf("no stale arrivals despite %d exchanges — test not exercising the cache",
			p.Counters.Exchanges)
	}
}

func TestTraceChainPreserved(t *testing.T) {
	// livesim must not swallow a pre-installed Trace hook.
	ring, p := buildWorld(t, 64, 17, 10)
	seen, exchanged := 0, 0
	p.Trace = func(ev core.CycleEvent) {
		seen++
		if ev.Reason == core.Exchanged {
			exchanged++
		}
	}
	if _, err := New(ring, p); err != nil {
		t.Fatal(err)
	}
	e := event.New()
	p.Start(e)
	e.RunUntil(5000)
	if uint64(seen) != p.Counters.Probes || uint64(exchanged) != p.Counters.Exchanges {
		t.Fatalf("prior trace hook saw %d of %d cycles, %d of %d exchanges",
			seen, p.Counters.Probes, exchanged, p.Counters.Exchanges)
	}
}

func TestAuditObservesLookups(t *testing.T) {
	// With an auditor attached, every completed lookup becomes a KindLookup
	// record and a correct run stays violation-free under the full overlay
	// invariant set (bijection, connectivity, frozen topology).
	ring, p := buildWorld(t, 64, 23, 10)
	sim, err := New(ring, p)
	if err != nil {
		t.Fatal(err)
	}
	a := audit.New(1, 64)
	a.Register(
		audit.OverlayBijection(ring.O),
		audit.OverlayConnected(ring.O),
		audit.TopologyFrozen(ring.O),
		audit.Check("chord-wellformed", ring.CheckInvariants),
	)
	sim.Audit = a
	e := event.New()
	a.AttachEngine(e)
	p.Start(e)
	r := rng.New(29)
	const lookups = 100
	for i := 0; i < lookups; i++ {
		sim.IssueLookup(e, event.Time(float64(i)*5), r.Intn(64), chord.RandomKey(r))
	}
	e.RunUntil(30000)
	a.CheckNow()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if a.Events() != lookups {
		t.Fatalf("auditor saw %d lookup records, want %d", a.Events(), lookups)
	}
	// A deliberately wrong outcome must be flagged.
	notOwner := (ring.Owner(1) + 1) % 64
	sim.finish(e, lookupState{key: 1, src: 0, slot: notOwner}, false)
	if err := a.Err(); err == nil {
		t.Fatal("incorrect lookup outcome not flagged by the auditor")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	ring, p := buildWorld(t, 16, 19, 1000)
	sim, err := New(ring, p)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sim.Summarize(); sum.Lookups != 0 || sum.MeanHops != 0 {
		t.Fatalf("empty summary: %+v", sum)
	}
}

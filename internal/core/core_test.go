package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/gnutella"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/rng"
)

func lineLat(a, b int) float64 { return math.Abs(float64(a - b)) }

// scrambledLineOverlay builds a Gnutella overlay whose hosts are points on
// a line but whose logical links ignore locality — maximal room for PROP to
// improve.
func scrambledLineOverlay(t testing.TB, n int, seed uint64) (*overlay.Overlay, *rng.Rand) {
	t.Helper()
	r := rng.New(seed)
	hosts := r.Perm(n * 10)[:n] // scattered, scrambled positions
	o, err := gnutella.Build(hosts, gnutella.DefaultConfig(), lineLat, r)
	if err != nil {
		t.Fatal(err)
	}
	return o, r
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(PROPG)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Policy: Policy(9), NHops: 2, InitTimerMS: 1, MaxInitTrials: 1, MaxTimerFactor: 2},
		{Policy: PROPG, NHops: 0, InitTimerMS: 1, MaxInitTrials: 1, MaxTimerFactor: 2},
		{Policy: PROPO, NHops: 2, M: -1, InitTimerMS: 1, MaxInitTrials: 1, MaxTimerFactor: 2},
		{Policy: PROPG, NHops: 2, InitTimerMS: 0, MaxInitTrials: 1, MaxTimerFactor: 2},
		{Policy: PROPG, NHops: 2, InitTimerMS: 1, MaxInitTrials: 0, MaxTimerFactor: 2},
		{Policy: PROPG, NHops: 2, InitTimerMS: 1, MaxInitTrials: 1, MaxTimerFactor: 0.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := New(&overlay.Overlay{}, cfg, rng.New(1)); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
	if _, err := New(nil, good, rng.New(1)); err == nil {
		t.Error("nil overlay accepted")
	}
	// RandomProbe permits NHops = 0.
	rp := DefaultConfig(PROPG)
	rp.NHops = 0
	rp.RandomProbe = true
	if err := rp.Validate(); err != nil {
		t.Errorf("RandomProbe config rejected: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	if PROPG.String() != "PROP-G" || PROPO.String() != "PROP-O" {
		t.Fatal("policy names wrong")
	}
	if Policy(7).String() == "" {
		t.Fatal("unknown policy should still format")
	}
}

func TestDefaultMEqualsMinDegree(t *testing.T) {
	o, r := scrambledLineOverlay(t, 100, 1)
	p, err := New(o, DefaultConfig(PROPO), r)
	if err != nil {
		t.Fatal(err)
	}
	if p.M() != o.Logical.MinDegree() {
		t.Fatalf("M = %d, want δ(G) = %d", p.M(), o.Logical.MinDegree())
	}
	cfg := DefaultConfig(PROPO)
	cfg.M = 2
	p2, err := New(o, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if p2.M() != 2 {
		t.Fatalf("explicit M not honored: %d", p2.M())
	}
}

func runProtocol(t testing.TB, o *overlay.Overlay, cfg Config, r *rng.Rand, horizonMS float64) *Protocol {
	t.Helper()
	p, err := New(o, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	e := event.New()
	p.Start(e)
	e.RunUntil(event.Time(horizonMS))
	return p
}

func TestPROPGReducesLinkLatency(t *testing.T) {
	o, r := scrambledLineOverlay(t, 200, 42)
	before := o.MeanLinkLatency()
	p := runProtocol(t, o, DefaultConfig(PROPG), r, 30*60000)
	after := o.MeanLinkLatency()
	if p.Counters.Exchanges == 0 {
		t.Fatal("no exchanges executed")
	}
	if after >= before*0.8 {
		t.Fatalf("PROP-G latency %.1f -> %.1f: insufficient improvement", before, after)
	}
}

func TestPROPOReducesLinkLatency(t *testing.T) {
	o, r := scrambledLineOverlay(t, 200, 43)
	before := o.MeanLinkLatency()
	p := runProtocol(t, o, DefaultConfig(PROPO), r, 30*60000)
	after := o.MeanLinkLatency()
	if p.Counters.Exchanges == 0 {
		t.Fatal("no exchanges executed")
	}
	if after >= before*0.9 {
		t.Fatalf("PROP-O latency %.1f -> %.1f: insufficient improvement", before, after)
	}
}

func TestPROPGPreservesLogicalGraph(t *testing.T) {
	// Theorem 2, executable: the logical edge set must be bit-identical
	// after any amount of PROP-G activity.
	o, r := scrambledLineOverlay(t, 150, 7)
	edgesBefore := o.Logical.Edges()
	runProtocol(t, o, DefaultConfig(PROPG), r, 20*60000)
	edgesAfter := o.Logical.Edges()
	if len(edgesBefore) != len(edgesAfter) {
		t.Fatalf("edge count changed: %d -> %d", len(edgesBefore), len(edgesAfter))
	}
	for i := range edgesBefore {
		if edgesBefore[i] != edgesAfter[i] {
			t.Fatalf("edge %d changed: %+v -> %+v", i, edgesBefore[i], edgesAfter[i])
		}
	}
}

func TestPROPGPreservesHostSet(t *testing.T) {
	o, r := scrambledLineOverlay(t, 100, 8)
	hostsBefore := append([]int(nil), o.Hosts()...)
	runProtocol(t, o, DefaultConfig(PROPG), r, 20*60000)
	hostsAfter := o.Hosts()
	count := map[int]int{}
	for _, h := range hostsBefore {
		count[h]++
	}
	for _, h := range hostsAfter {
		count[h]--
	}
	for h, c := range count {
		if c != 0 {
			t.Fatalf("host multiset changed at host %d (delta %d)", h, c)
		}
	}
}

func TestPROPOPreservesDegreesAndConnectivity(t *testing.T) {
	f := func(seed uint64) bool {
		o, r := scrambledLineOverlay(t, 80, seed)
		degBefore := map[int]int{}
		for _, s := range o.AliveSlots() {
			degBefore[s] = o.Degree(s)
		}
		cfg := DefaultConfig(PROPO)
		cfg.InitTimerMS = 1000 // fast probes for the property test
		runProtocol(t, o, cfg, r, 50*1000)
		for s, d := range degBefore {
			if o.Degree(s) != d {
				return false
			}
		}
		return o.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPROPGKeepsConnectivity(t *testing.T) {
	o, r := scrambledLineOverlay(t, 120, 9)
	runProtocol(t, o, DefaultConfig(PROPG), r, 20*60000)
	if !o.Connected() {
		t.Fatal("PROP-G broke connectivity (impossible: graph untouched)")
	}
}

func TestNHops1IsWeak(t *testing.T) {
	// Fig. 5/6(a): neighbor exchange (nhops = 1) cannot reduce latency
	// significantly compared to nhops = 2.
	o1, r1 := scrambledLineOverlay(t, 200, 77)
	o2, r2 := scrambledLineOverlay(t, 200, 77)
	base := o1.MeanLinkLatency()

	cfg1 := DefaultConfig(PROPG)
	cfg1.NHops = 1
	runProtocol(t, o1, cfg1, r1, 30*60000)

	cfg2 := DefaultConfig(PROPG)
	cfg2.NHops = 2
	runProtocol(t, o2, cfg2, r2, 30*60000)

	drop1 := base - o1.MeanLinkLatency()
	drop2 := base - o2.MeanLinkLatency()
	if drop1 >= drop2 {
		t.Fatalf("nhops=1 improvement (%.1f) not smaller than nhops=2 (%.1f)", drop1, drop2)
	}
}

func TestRandomProbeWorks(t *testing.T) {
	o, r := scrambledLineOverlay(t, 150, 21)
	before := o.MeanLinkLatency()
	cfg := DefaultConfig(PROPG)
	cfg.RandomProbe = true
	p := runProtocol(t, o, cfg, r, 30*60000)
	if p.Counters.Exchanges == 0 {
		t.Fatal("random probing produced no exchanges")
	}
	if o.MeanLinkLatency() >= before {
		t.Fatal("random probing did not improve latency")
	}
	if p.Counters.WalkMessages != 0 {
		t.Fatal("random probing should not send walk messages")
	}
}

func TestTimerBackoffSequence(t *testing.T) {
	// Two symmetric nodes where no exchange is ever profitable (identical
	// positions on a 2-node line make every Var = 0): the timer must stay
	// at INIT through warm-up, then double each failure, and reset once it
	// would exceed MAX_TIMER = 32×INIT.
	hosts := []int{0, 100}
	o, err := overlay.New(hosts, lineLat)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(PROPG)
	cfg.NHops = 1
	cfg.MaxInitTrials = 2
	cfg.InitTimerMS = 100
	cfg.MaxTimerFactor = 8
	p, err := New(o, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	e := event.New()
	p.Start(e)
	var timers []float64
	for i := 0; i < 16 && e.Step(); i++ {
		if tm, ok := p.TimerOf(0); ok {
			timers = append(timers, tm)
		}
	}
	// After node 0's warm-up (2 trials at 100), expect 200, 400, 800,
	// then reset to 100 (1600 > 8*100). Node 1's events interleave, so just
	// verify the pattern appears and the cap is respected.
	sawDouble, sawReset := false, false
	for i := 1; i < len(timers); i++ {
		if timers[i] == 2*timers[i-1] {
			sawDouble = true
		}
		if timers[i-1] == 800 && timers[i] == 100 {
			sawReset = true
		}
		if timers[i] > 800 {
			t.Fatalf("timer %v exceeded MAX_TIMER 800 (sequence %v)", timers[i], timers)
		}
	}
	if !sawDouble || !sawReset {
		t.Fatalf("backoff pattern missing (double=%v reset=%v): %v", sawDouble, sawReset, timers)
	}
	if p.Counters.Exchanges != 0 {
		t.Fatalf("unexpected exchanges: %d", p.Counters.Exchanges)
	}
}

func TestOverheadPerAdjustment(t *testing.T) {
	// §4.3: PROP-G costs ~nhops + 2c per adjustment, PROP-O ~nhops + 2m.
	// With c >> m, PROP-O must be much cheaper per adjustment.
	oG, rG := scrambledLineOverlay(t, 300, 31)
	oO, rO := scrambledLineOverlay(t, 300, 31)
	cfgO := DefaultConfig(PROPO)
	cfgO.M = 1
	pG := runProtocol(t, oG, DefaultConfig(PROPG), rG, 15*60000)
	pO := runProtocol(t, oO, cfgO, rO, 15*60000)
	mpaG := pG.Counters.MessagesPerAdjustment()
	mpaO := pO.Counters.MessagesPerAdjustment()
	if mpaG <= mpaO {
		t.Fatalf("PROP-G overhead %.1f not above PROP-O %.1f", mpaG, mpaO)
	}
	// PROP-O's cost must be bounded by nhops + 2m + slack.
	if mpaO > 2+2*1+2 {
		t.Fatalf("PROP-O per-adjustment cost %.1f exceeds model bound", mpaO)
	}
}

func TestChurnAddRemove(t *testing.T) {
	o, r := scrambledLineOverlay(t, 60, 13)
	cfg := DefaultConfig(PROPG)
	cfg.InitTimerMS = 1000
	p, err := New(o, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	e := event.New()
	p.Start(e)
	e.RunUntil(5000)
	if p.Registered() != 60 {
		t.Fatalf("Registered = %d", p.Registered())
	}
	// Join.
	g := gnutella.Net{O: o, Config: gnutella.DefaultConfig()}
	slot, err := g.Join(99999, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddNode(e, slot); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNode(e, slot); err == nil {
		t.Fatal("duplicate AddNode accepted")
	}
	if p.Registered() != 61 {
		t.Fatalf("Registered after join = %d", p.Registered())
	}
	// Neighbors of the joiner must have reset timers.
	for _, nb := range o.Neighbors(slot) {
		if tm, ok := p.TimerOf(nb); !ok || tm != cfg.InitTimerMS {
			t.Fatalf("neighbor %d timer = %v after join", nb, tm)
		}
	}
	// Leave.
	victim := o.AliveSlots()[5]
	former := o.Neighbors(victim)
	if err := g.Leave(victim, r); err != nil {
		t.Fatal(err)
	}
	p.RemoveNode(e, victim, former)
	if p.Registered() != 60 {
		t.Fatalf("Registered after leave = %d", p.Registered())
	}
	// Protocol must keep running without touching the dead slot.
	e.RunUntil(60000)
	if !o.Connected() {
		t.Fatal("overlay disconnected after churn")
	}
	if _, ok := p.TimerOf(victim); ok {
		t.Fatal("dead slot still has protocol state")
	}
	if err := p.AddNode(e, victim); err == nil {
		t.Fatal("AddNode on dead slot accepted")
	}
}

func TestTraceReceivesExchanges(t *testing.T) {
	o, r := scrambledLineOverlay(t, 100, 3)
	p, err := New(o, DefaultConfig(PROPG), r)
	if err != nil {
		t.Fatal(err)
	}
	var events []ExchangeEvent
	p.Trace = func(ev ExchangeEvent) { events = append(events, ev) }
	e := event.New()
	p.Start(e)
	e.RunUntil(20 * 60000)
	if uint64(len(events)) != p.Counters.Exchanges {
		t.Fatalf("trace saw %d events, counters say %d", len(events), p.Counters.Exchanges)
	}
	for _, ev := range events {
		if ev.Var <= 0 {
			t.Fatalf("exchange with non-positive Var recorded: %+v", ev)
		}
		if ev.U == ev.V {
			t.Fatalf("self-exchange recorded: %+v", ev)
		}
	}
}

func TestVarNonNegativeGainInvariant(t *testing.T) {
	// §4.2: every executed exchange must strictly reduce the summed
	// neighbor latency (Var > 0 ⇒ L_t0 > L_t1). Verify by recomputing the
	// global sum around each exchange via the trace hook.
	o, r := scrambledLineOverlay(t, 100, 11)
	p, err := New(o, DefaultConfig(PROPO), r)
	if err != nil {
		t.Fatal(err)
	}
	total := func() float64 {
		s := 0.0
		for _, slot := range o.AliveSlots() {
			s += o.NeighborLatencySum(slot)
		}
		return s
	}
	last := total()
	violations := 0
	p.Trace = func(ev ExchangeEvent) {
		now := total()
		if now >= last {
			violations++
		}
		last = now
	}
	e := event.New()
	p.Start(e)
	e.RunUntil(20 * 60000)
	if violations > 0 {
		t.Fatalf("%d exchanges did not reduce total neighbor latency", violations)
	}
}

func TestOnTransitStubNetwork(t *testing.T) {
	// End-to-end sanity on the real substrate: PROP-G over a Gnutella
	// overlay on ts-large must cut stretch.
	if testing.Short() {
		t.Skip("transit-stub integration in -short mode")
	}
	r := rng.New(2024)
	net, err := netsim.Generate(netsim.TSLarge(), r)
	if err != nil {
		t.Fatal(err)
	}
	oracle := netsim.NewOracle(net)
	o, err := gnutella.Build(net.PickHosts(400, r), gnutella.DefaultConfig(), oracle.Latency, r)
	if err != nil {
		t.Fatal(err)
	}
	phys := net.MeanLinkLatency()
	before := o.Stretch(phys)
	p, err := New(o, DefaultConfig(PROPG), r)
	if err != nil {
		t.Fatal(err)
	}
	e := event.New()
	p.Start(e)
	e.RunUntil(30 * 60000)
	after := o.Stretch(phys)
	if after >= before*0.85 {
		t.Fatalf("stretch %.2f -> %.2f: PROP-G ineffective on ts-large", before, after)
	}
	if !o.Connected() {
		t.Fatal("overlay disconnected")
	}
}

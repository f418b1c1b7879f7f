package ltm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/audit"
	"repro/internal/event"
	"repro/internal/gnutella"
	"repro/internal/overlay"
	"repro/internal/rng"
)

func lineLat(a, b int) float64 { return math.Abs(float64(a - b)) }

func scrambled(t testing.TB, n int, seed uint64) (*overlay.Overlay, *rng.Rand) {
	t.Helper()
	r := rng.New(seed)
	hosts := r.Perm(n * 10)[:n]
	o, err := gnutella.Build(hosts, gnutella.DefaultConfig(), lineLat, r)
	if err != nil {
		t.Fatal(err)
	}
	return o, r
}

func TestLTMReducesLinkLatency(t *testing.T) {
	o, r := scrambled(t, 200, 42)
	before := o.MeanLinkLatency()
	p := New(o, r)
	e := event.New()
	p.Start(e)
	e.RunUntil(30 * 60000)
	after := o.MeanLinkLatency()
	if p.Counters.Exchanges == 0 {
		t.Fatal("no topology modifications executed")
	}
	if after >= before*0.8 {
		t.Fatalf("LTM latency %.1f -> %.1f: insufficient improvement", before, after)
	}
}

func TestLTMKeepsConnectivity(t *testing.T) {
	f := func(seed uint64) bool {
		o, r := scrambled(t, 80, seed)
		p := New(o, r)
		e := event.New()
		p.Start(e)
		e.RunUntil(30 * periodMS)
		return o.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestLTMChangesDegrees(t *testing.T) {
	// The defining contrast with PROP-O: LTM rewires freely, so the degree
	// sequence is NOT preserved.
	o, r := scrambled(t, 150, 7)
	before := o.Logical.DegreeSequence()
	p := New(o, r)
	e := event.New()
	p.Start(e)
	e.RunUntil(20 * 60000)
	after := o.Logical.DegreeSequence()
	same := len(before) == len(after)
	if same {
		for i := range before {
			if before[i] != after[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("LTM preserved the degree sequence; expected free rewiring")
	}
}

func TestLTMRespectsMinDegree(t *testing.T) {
	o, r := scrambled(t, 100, 11)
	p := New(o, r)
	e := event.New()
	p.Start(e)
	e.RunUntil(20 * 60000)
	for _, s := range o.AliveSlots() {
		if o.Degree(s) < minDegree {
			t.Fatalf("slot %d degree %d below minDegree", s, o.Degree(s))
		}
	}
}

func TestLTMOverheadCounted(t *testing.T) {
	o, r := scrambled(t, 100, 3)
	p := New(o, r)
	e := event.New()
	p.Start(e)
	e.RunUntil(5 * 60000)
	if p.Counters.Probes == 0 {
		t.Fatal("no detector rounds counted")
	}
	// TTL-2 flooding costs at least degree messages per round.
	if p.Counters.WalkMessages < p.Counters.Probes*4 {
		t.Fatalf("detector messages %d implausibly low for %d rounds",
			p.Counters.WalkMessages, p.Counters.Probes)
	}
}

func TestLTMSkipsDeadPeers(t *testing.T) {
	o, r := scrambled(t, 50, 5)
	p := New(o, r)
	e := event.New()
	p.Start(e)
	e.RunUntil(1.5 * periodMS)
	victim := o.AliveSlots()[0]
	if err := (gnutella.Net{O: o, Config: gnutella.DefaultConfig()}).Leave(victim, r); err != nil {
		t.Fatal(err)
	}
	// The dead peer's pending round must be a no-op, not a panic.
	e.RunUntil(60 * periodMS)
	if !o.Connected() {
		t.Fatal("overlay disconnected")
	}
}

func TestTraceObservesEveryRewire(t *testing.T) {
	// The Trace hook must see exactly one RewireEvent per executed topology
	// modification, and the rewire stream routed through the auditor (as
	// exchange records: LTM counts each cut or add as one exchange) must
	// keep the overlay invariants LTM is allowed to touch: bijection and
	// connectivity hold, while degrees are free to drift (that freedom is
	// LTM's defining contrast with PROP-O).
	o, r := scrambled(t, 60, 21)
	p := New(o, r)
	a := audit.New(1, 64)
	a.Register(audit.OverlayBijection(o), audit.OverlayConnected(o))
	cuts, adds := 0, 0
	p.Trace = func(ev RewireEvent) {
		if ev.Added {
			adds++
		} else {
			cuts++
		}
		val := 0.0
		if ev.Added {
			val = 1
		}
		a.Observe(audit.Record{
			At: float64(ev.At), Kind: audit.KindExchange, A: ev.U, B: ev.W, Val: val,
		})
	}
	e := event.New()
	a.AttachEngine(e)
	p.Start(e)
	e.RunUntil(10 * 60000)
	if uint64(cuts+adds) != p.Counters.Exchanges {
		t.Fatalf("trace saw %d cuts + %d adds, counters say %d modifications",
			cuts, adds, p.Counters.Exchanges)
	}
	if cuts == 0 || adds == 0 {
		t.Fatalf("test vacuous: cuts=%d adds=%d", cuts, adds)
	}
	a.CheckNow()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if a.Events() != uint64(cuts+adds) {
		t.Fatalf("auditor recorded %d events, want %d", a.Events(), cuts+adds)
	}
}

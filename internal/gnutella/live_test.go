package gnutella_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/dhttest"
	"repro/internal/faults"
	"repro/internal/gnutella"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// Gnutella is unstructured — no lookup contract, so no dhttest.DHT adapter —
// but the live-runtime requirement is the same as for the DHTs: churn and
// crash-stop recovery must hold the audit invariants when every latency the
// protocol consumes is measured over the transport instead of read from an
// oracle. This file is the unstructured counterpart of the dhttest live
// backend.

func liveLine(a, b int) float64 { return math.Abs(float64(a-b)) + 1 }

func liveHalf(a, b int) float64 { return liveLine(a, b) / 2 }

// runLiveChurn drives one seeded churn+crash scenario over a LiveLatency
// plane and returns the fault schedule it induced.
func runLiveChurn(t *testing.T, inj *faults.Injector) []struct {
	Src, Dst int
	Seq      uint64
} {
	t.Helper()
	live := dhttest.NewLiveLatency(dhttest.LiveConfig{
		DelayMS: liveHalf,
		Faults:  inj,
		Timeout: 20 * time.Millisecond,
		Retries: 10,
	})
	defer live.Close()

	hosts := make([]int, 48)
	for i := range hosts {
		hosts[i] = i * 3
	}
	cfg := gnutella.DefaultConfig()
	r := rng.New(404)
	var lat overlay.LatencyFunc = live.Lat
	o, err := gnutella.Build(hosts, cfg, lat, r)
	if err != nil {
		t.Fatalf("live build: %v", err)
	}
	g := gnutella.Net{O: o, Config: cfg}

	a := audit.New(1, 64)
	a.Register(audit.OverlayBijection(o), audit.OverlayConnected(o))

	nextHost := 3_000_000
	for op := 0; op < 30; op++ {
		switch {
		case op%5 == 4 && o.NumAlive() > 10:
			// Crash-stop: abrupt death, then the failure-recovery round.
			alive := o.AliveSlots()
			victim := alive[r.Intn(len(alive))]
			if err := g.Crash(victim); err != nil {
				t.Fatalf("op %d: crash(%d): %v", op, victim, err)
			}
			if _, err := g.Repair(r); err != nil {
				t.Fatalf("op %d: repair: %v", op, err)
			}
			a.Observe(audit.Record{Kind: audit.KindLeave, A: victim})
		case r.Bool(0.5) && o.NumAlive() > 10:
			alive := o.AliveSlots()
			victim := alive[r.Intn(len(alive))]
			if err := g.Leave(victim, r); err != nil {
				t.Fatalf("op %d: leave(%d): %v", op, victim, err)
			}
			a.Observe(audit.Record{Kind: audit.KindLeave, A: victim})
		default:
			slot, err := g.Join(nextHost, r)
			if err != nil {
				t.Fatalf("op %d: join(host %d): %v", op, nextHost, err)
			}
			a.Observe(audit.Record{Kind: audit.KindJoin, A: slot, B: nextHost})
			nextHost++
		}
		// Consume the topology's latencies the way the optimizer would —
		// every link cost below flows through a live RTT measurement.
		if m := o.MeanLinkLatency(); m <= 0 {
			t.Fatalf("op %d: mean link latency %v", op, m)
		}
	}
	if err := a.Err(); err != nil {
		t.Fatalf("live churn audit failed (%s): %v", a.Summary(), err)
	}
	if a.Checks() == 0 {
		t.Fatal("live churn audited nothing")
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants after live churn: %v", err)
	}
	if live.Stats().Sent == 0 {
		t.Fatal("no transport traffic; latency plane was never consulted")
	}

	drops := live.Drops()
	sched := make([]struct {
		Src, Dst int
		Seq      uint64
	}, len(drops))
	for i, d := range drops {
		sched[i] = struct {
			Src, Dst int
			Seq      uint64
		}{d.Src, d.Dst, d.Seq}
	}
	return sched
}

func TestLiveChurnAuditClean(t *testing.T) {
	if got := runLiveChurn(t, nil); len(got) != 0 {
		t.Fatalf("fault-free run recorded %d drops", len(got))
	}
}

func TestLiveChurnFaultScheduleDeterministic(t *testing.T) {
	mk := func() *faults.Injector {
		inj, err := faults.NewInjector(faults.Config{Seed: 0xBEEF, LossProb: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	s1 := runLiveChurn(t, mk())
	s2 := runLiveChurn(t, mk())
	if len(s1) == 0 {
		t.Fatal("no losses at 5% over a full churn scenario; fault gate inert")
	}
	if len(s1) != len(s2) {
		t.Fatalf("fault schedules differ in length: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("fault schedules diverge at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

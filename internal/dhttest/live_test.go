package dhttest

import (
	"testing"
	"time"

	"repro/internal/faults"
)

func TestLiveLatencyMatchesOracleExactly(t *testing.T) {
	live := NewLiveLatency(LiveConfig{DelayMS: halfLine})
	defer live.Close()

	pairs := [][2]int{{0, 7}, {7, 0}, {3, 100}, {1_000_000, 2}, {5, 5}}
	for _, p := range pairs {
		got := live.Lat(p[0], p[1])
		if want := lineLat(p[0], p[1]); got != want {
			t.Fatalf("live RTT %d→%d = %v, oracle says %v (must be float-exact)", p[0], p[1], got, want)
		}
	}

	// The cache must absorb repeats: no new pings for known pairs.
	sent := live.Stats().Sent
	for i := 0; i < 10; i++ {
		for _, p := range pairs {
			live.Lat(p[0], p[1])
		}
	}
	if now := live.Stats().Sent; now != sent {
		t.Fatalf("cached lookups still pinged: Sent %d → %d", sent, now)
	}
}

func TestLiveLatencyFaultScheduleDeterministic(t *testing.T) {
	// The live-runtime acceptance criterion: a seeded measurement-plane run
	// with loss produces the identical fault schedule on every repetition.
	run := func() ([]float64, []struct {
		Src, Dst int
		Seq      uint64
	}) {
		inj, err := faults.NewInjector(faults.Config{Seed: 0xC0FFEE, LossProb: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		live := NewLiveLatency(LiveConfig{
			DelayMS: halfLine,
			Faults:  inj,
			Timeout: 20 * time.Millisecond,
			Retries: 10,
		})
		defer live.Close()

		var rtts []float64
		for a := 0; a < 12; a++ {
			for b := 0; b < 12; b++ {
				if a != b {
					rtts = append(rtts, live.Lat(a*7, b*7))
				}
			}
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
		return rtts, sched
	}

	r1, s1 := run()
	r2, s2 := run()
	if len(s1) == 0 {
		t.Fatal("no losses with LossProb 0.05 over 132 probed pairs; fault gate inert")
	}
	if len(s1) != len(s2) {
		t.Fatalf("fault schedules differ in length: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("fault schedules diverge at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("measured RTTs diverge at %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestLiveLatencyLossyProbesStillExact(t *testing.T) {
	// Loss delays a measurement (retransmits) but never distorts it: the
	// surviving exchange still reports the exact virtual RTT.
	inj, err := faults.NewInjector(faults.Config{Seed: 9, LossProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	live := NewLiveLatency(LiveConfig{
		DelayMS: halfLine,
		Faults:  inj,
		Timeout: 10 * time.Millisecond,
		Retries: 12,
	})
	defer live.Close()
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			if got, want := live.Lat(a, b), lineLat(a, b); got != want {
				t.Fatalf("lossy RTT %d→%d = %v, want exactly %v", a, b, got, want)
			}
		}
	}
	if live.Stats().Dropped == 0 {
		t.Fatal("no drops at 30% loss; fault gate inert")
	}
}

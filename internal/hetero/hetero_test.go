package hetero

import (
	"math"
	"testing"

	"repro/internal/gnutella"
	"repro/internal/overlay"
	"repro/internal/rng"
)

func lat(a, b int) float64 { return math.Abs(float64(a - b)) }

func buildOverlay(t *testing.T, n int) *overlay.Overlay {
	t.Helper()
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	o, err := gnutella.Build(hosts, gnutella.DefaultConfig(), lat, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Config{
		{FastDelayMS: -1, SlowDelayMS: 10, FastFraction: 0.5},
		{FastDelayMS: 10, SlowDelayMS: 1, FastFraction: 0.5},
		{FastDelayMS: 1, SlowDelayMS: 10, FastFraction: 1.5},
		{FastDelayMS: 1, SlowDelayMS: 10, FastFraction: -0.1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestAssignByDegreePicksHubs(t *testing.T) {
	o := buildOverlay(t, 500)
	m, err := AssignByDegree(o, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fast := m.FastSlots()
	if len(fast) != 100 { // 20% of 500
		t.Fatalf("fast count = %d, want 100", len(fast))
	}
	// No slow slot may outrank the weakest fast slot.
	minFast := 1 << 30
	for _, s := range fast {
		if d := o.Degree(s); d < minFast {
			minFast = d
		}
	}
	for _, s := range m.SlowSlots() {
		if o.Degree(s) > minFast {
			t.Fatalf("slow slot %d (deg %d) outranks weakest fast (deg %d)",
				s, o.Degree(s), minFast)
		}
	}
	if len(fast)+len(m.SlowSlots()) != 500 {
		t.Fatal("partition broken")
	}
}

func TestDelays(t *testing.T) {
	o := buildOverlay(t, 100)
	m, err := AssignByDegree(o, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.FastSlots() {
		if !m.IsFastSlot(s) || m.Delay(s) != 1 {
			t.Fatalf("fast slot %d: IsFastSlot=%v Delay=%v", s, m.IsFastSlot(s), m.Delay(s))
		}
	}
	for _, s := range m.SlowSlots() {
		if m.IsFastSlot(s) || m.Delay(s) != 100 {
			t.Fatalf("slow slot %d misclassified", s)
		}
	}
}

func TestSpeedTravelsWithHost(t *testing.T) {
	// PROP-G swaps must carry the machine's speed to its new slot.
	o := buildOverlay(t, 100)
	m, err := AssignByDegree(o, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fastSlot := m.FastSlots()[0]
	slowSlot := m.SlowSlots()[0]
	fastHost := o.HostOf(fastSlot)
	if err := o.SwapHosts(fastSlot, slowSlot); err != nil {
		t.Fatal(err)
	}
	if !m.IsFastHost(fastHost) {
		t.Fatal("host speed changed by a swap")
	}
	if !m.IsFastSlot(slowSlot) || m.IsFastSlot(fastSlot) {
		t.Fatal("slot speed did not follow the host")
	}
	if m.Delay(slowSlot) != 1 || m.Delay(fastSlot) != 100 {
		t.Fatal("delays did not follow the host")
	}
}

func TestAssignRejectsBadConfig(t *testing.T) {
	o := buildOverlay(t, 10)
	bad := Config{FastDelayMS: 5, SlowDelayMS: 1, FastFraction: 0.5}
	if _, err := AssignByDegree(o, bad); err == nil {
		t.Error("AssignByDegree accepted bad config")
	}
}

func TestFractionBoundaries(t *testing.T) {
	o := buildOverlay(t, 50)
	all, err := AssignByDegree(o, Config{FastDelayMS: 1, SlowDelayMS: 2, FastFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.FastSlots()) != 50 {
		t.Fatalf("FastFraction=1 gave %d fast slots", len(all.FastSlots()))
	}
	none, err := AssignByDegree(o, Config{FastDelayMS: 1, SlowDelayMS: 2, FastFraction: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(none.FastSlots()) != 0 {
		t.Fatalf("FastFraction=0 gave %d fast slots", len(none.FastSlots()))
	}
}

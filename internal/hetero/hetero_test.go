package hetero

import (
	"math"
	"slices"
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

// slotsBySpeed splits the live slots of o into those backed by fast
// machines and those backed by slow ones, each ascending.
func slotsBySpeed(o *overlay.Overlay, m *Model) (fast, slow []int) {
	for _, s := range o.AliveSlots() {
		if m.DelayByHost[o.HostOf(s)] == fastDelayMS {
			fast = append(fast, s)
		} else {
			slow = append(slow, s)
		}
	}
	return fast, slow
}

func TestAssignByDegreePicksHubs(t *testing.T) {
	o := buildOverlay(t, 500)
	m := AssignByDegree(o)
	fast, slow := slotsBySpeed(o, m)
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
	for _, s := range slow {
		if o.Degree(s) > minFast {
			t.Fatalf("slow slot %d (deg %d) outranks weakest fast (deg %d)",
				s, o.Degree(s), minFast)
		}
	}
	if len(fast)+len(slow) != 500 {
		t.Fatal("partition broken")
	}
}

func TestDelays(t *testing.T) {
	o := buildOverlay(t, 100)
	m := AssignByDegree(o)
	fast, slow := slotsBySpeed(o, m)
	if len(fast) != 20 || len(slow) != 80 {
		t.Fatalf("%d fast and %d slow slots, want 20 and 80", len(fast), len(slow))
	}
	for _, s := range slow {
		if d := m.DelayByHost[o.HostOf(s)]; d != 100 {
			t.Fatalf("slow slot %d: delay %v, want 100", s, d)
		}
	}
	got := make([]int, len(fast))
	for i, s := range fast {
		got[i] = o.HostOf(s)
	}
	slices.Sort(got)
	if !slices.Equal(got, m.FastHosts) {
		t.Fatalf("fast slots' hosts %v, FastHosts %v", got, m.FastHosts)
	}
}

func TestSpeedTravelsWithHost(t *testing.T) {
	// PROP-G swaps must carry the machine's speed to its new slot.
	o := buildOverlay(t, 100)
	m := AssignByDegree(o)
	fast, slow := slotsBySpeed(o, m)
	fastSlot, slowSlot := fast[0], slow[0]
	fastHost := o.HostOf(fastSlot)
	if err := o.SwapHosts(fastSlot, slowSlot); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(m.FastHosts, fastHost) {
		t.Fatal("host speed changed by a swap")
	}
	if m.DelayByHost[o.HostOf(slowSlot)] != 1 || m.DelayByHost[o.HostOf(fastSlot)] != 100 {
		t.Fatal("delays did not follow the host")
	}
}

func TestFractionBoundaries(t *testing.T) {
	for _, tc := range []struct {
		frac    float64
		n, want int
	}{{1, 50, 50}, {0, 50, 0}, {0.2, 500, 100}, {0.2, 7, 2}} {
		if got := fastCount(tc.frac, tc.n); got != tc.want {
			t.Errorf("fastCount(%v, %d) = %d, want %d", tc.frac, tc.n, got, tc.want)
		}
	}
}

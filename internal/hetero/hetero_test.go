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

// slotsBySpeed splits the live slots into those backed by fast machines
// and those backed by slow ones, each ascending.
func slotsBySpeed(m *Model) (fast, slow []int) {
	for _, s := range m.o.AliveSlots() {
		if m.IsFastSlot(s) {
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
	fast, slow := slotsBySpeed(m)
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
	fast, slow := slotsBySpeed(m)
	for _, s := range fast {
		if !m.IsFastSlot(s) || m.Delay(s) != 1 {
			t.Fatalf("fast slot %d: IsFastSlot=%v Delay=%v", s, m.IsFastSlot(s), m.Delay(s))
		}
	}
	for _, s := range slow {
		if m.IsFastSlot(s) || m.Delay(s) != 100 {
			t.Fatalf("slow slot %d misclassified", s)
		}
	}
}

func TestSpeedTravelsWithHost(t *testing.T) {
	// PROP-G swaps must carry the machine's speed to its new slot.
	o := buildOverlay(t, 100)
	m := AssignByDegree(o)
	fast, slow := slotsBySpeed(m)
	fastSlot, slowSlot := fast[0], slow[0]
	fastHost := o.HostOf(fastSlot)
	if err := o.SwapHosts(fastSlot, slowSlot); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(m.FastHosts(), fastHost) {
		t.Fatal("host speed changed by a swap")
	}
	if !m.IsFastSlot(slowSlot) || m.IsFastSlot(fastSlot) {
		t.Fatal("slot speed did not follow the host")
	}
	if m.Delay(slowSlot) != 1 || m.Delay(fastSlot) != 100 {
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

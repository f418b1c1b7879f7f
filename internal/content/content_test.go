package content

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
		hosts[i] = i * 2
	}
	o, err := gnutella.Build(hosts, gnutella.DefaultConfig(), lat, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Items: 0, Replicas: 1},
		{Items: 1, Replicas: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPlaceReplicas(t *testing.T) {
	o := buildOverlay(t, 100)
	cfg := Config{Items: 50, Replicas: 4}
	c, err := Place(o, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.holders) != 50 {
		t.Fatalf("Items = %d", len(c.holders))
	}
	hostSet := map[int]bool{}
	for _, h := range o.Hosts() {
		hostSet[h] = true
	}
	for i := 0; i < 50; i++ {
		hs := c.holders[i]
		if len(hs) != 4 {
			t.Fatalf("item %d has %d replicas", i, len(hs))
		}
		seen := map[int]bool{}
		for _, h := range hs {
			if !hostSet[h] {
				t.Fatalf("item %d on unknown host %d", i, h)
			}
			if seen[h] {
				t.Fatalf("item %d replicated twice on host %d", i, h)
			}
			seen[h] = true
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	o := buildOverlay(t, 10)
	if _, err := Place(o, Config{Items: 5, Replicas: 11}, rng.New(1)); err == nil {
		t.Fatal("more replicas than machines accepted")
	}
	if _, err := Place(o, Config{Items: 0, Replicas: 1}, rng.New(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDrawItemZipfSkew(t *testing.T) {
	o := buildOverlay(t, 50)
	c, err := Place(o, Config{Items: 100, Replicas: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		it := c.DrawItem(r)
		if it < 0 || it >= 100 {
			t.Fatalf("DrawItem out of range: %d", it)
		}
		counts[it]++
	}
	// Rank 1 must be drawn far more often than rank 50.
	if counts[0] < 5*counts[49] {
		t.Fatalf("no Zipf skew: rank1=%d rank50=%d", counts[0], counts[49])
	}
}

func TestSearchLatencyNearestReplica(t *testing.T) {
	// Line overlay 0-1-2-3 (hosts 0,2,4,6 at unit spacing 2).
	hosts := []int{0, 2, 4, 6}
	o, err := overlay.New(hosts, lat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		o.AddEdge(i, i+1)
	}
	c := &Catalog{holders: [][]int{{0, 6}}, popCDF: []float64{1}}
	// From slot 1 (host 2): replica at host 0 is 2 away; host 6 is 4 away.
	if d := c.SearchLatency(o, 1, 0, nil); d != 2 {
		t.Fatalf("SearchLatency = %v, want 2", d)
	}
	// Searching from a holder costs 0.
	if d := c.SearchLatency(o, 0, 0, nil); d != 0 {
		t.Fatalf("holder search = %v", d)
	}
	// Unknown item fails.
	if d := c.SearchLatency(o, 0, 99, nil); !math.IsInf(d, 1) {
		t.Fatalf("unknown item = %v", d)
	}
}

func TestMeanSearchLatencyImprovesWithReplicas(t *testing.T) {
	o := buildOverlay(t, 200)
	r1, err := Place(o, Config{Items: 100, Replicas: 1}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Place(o, Config{Items: 100, Replicas: 8}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	m1, f1 := r1.MeanSearchLatency(o, 2000, nil, rng.New(11))
	m8, f8 := r8.MeanSearchLatency(o, 2000, nil, rng.New(11))
	if f1 != 0 || f8 != 0 {
		t.Fatalf("failed searches: %d/%d", f1, f8)
	}
	if m8 >= m1 {
		t.Fatalf("8 replicas (%.1f) not cheaper than 1 (%.1f)", m8, m1)
	}
}

func TestPlacementSurvivesHostSwaps(t *testing.T) {
	o := buildOverlay(t, 100)
	c, err := Place(o, DefaultConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	before := append([]int(nil), c.holders[0]...)
	for i := 0; i < 50; i++ {
		u, v := r.Intn(100), r.Intn(100)
		if u != v {
			o.SwapHosts(u, v)
		}
	}
	after := c.holders[0]
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("placement changed under host swaps (items must follow machines)")
		}
	}
	// Search still works against the new slot assignment.
	if d := c.SearchLatency(o, o.AliveSlots()[0], 0, nil); math.IsInf(d, 1) {
		t.Fatal("search failed after swaps")
	}
}

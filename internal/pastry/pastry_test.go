package pastry

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func lat(a, b int) float64 { return math.Abs(float64(a - b)) }

func hostsN(n int) []int {
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i * 3
	}
	return hosts
}

func buildMesh(t testing.TB, n int, seed uint64) *Mesh {
	t.Helper()
	m, err := Build(hostsN(n), DefaultConfig(), lat, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(hostsN(1), DefaultConfig(), lat, rng.New(1)); err == nil {
		t.Error("single node accepted")
	}
	if _, err := Build(hostsN(8), Config{LeafSetSize: 3}, lat, rng.New(1)); err == nil {
		t.Error("odd leaf-set size accepted")
	}
	if _, err := Build(hostsN(8), Config{LeafSetSize: 0}, lat, rng.New(1)); err == nil {
		t.Error("zero leaf-set size accepted")
	}
}

func TestDigitHelpers(t *testing.T) {
	id := uint32(0x12345678)
	want := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for d, w := range want {
		if got := digit(id, d); got != w {
			t.Errorf("digit(%#x, %d) = %d, want %d", id, d, got, w)
		}
	}
	if sp := sharedPrefix(0x12345678, 0x12345678); sp != Digits {
		t.Errorf("identical prefix = %d", sp)
	}
	if sp := sharedPrefix(0x12345678, 0x12340000); sp != 4 {
		t.Errorf("prefix = %d, want 4", sp)
	}
	if sp := sharedPrefix(0x02345678, 0x12345678); sp != 0 {
		t.Errorf("prefix = %d, want 0", sp)
	}
}

func TestRingDist(t *testing.T) {
	cases := []struct {
		a, b uint32
		want uint32
	}{
		{0, 0, 0},
		{0, 1, 1},
		{1, 0, 1},
		{0, math.MaxUint32, 1},
		{math.MaxUint32, 0, 1},
		{0, 1 << 31, 1 << 31},
	}
	for _, c := range cases {
		if got := ringDist(c.a, c.b); got != c.want {
			t.Errorf("ringDist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLeafSetsAreRingNeighbors(t *testing.T) {
	m := buildMesh(t, 100, 42)
	for s := 0; s < 100; s++ {
		leaves := m.Leaves(s)
		if len(leaves) != DefaultConfig().LeafSetSize {
			t.Fatalf("slot %d leaf set size %d", s, len(leaves))
		}
		// Every leaf must be within L/2 ring positions of s.
		i := m.pos[s]
		n := len(m.sorted)
		half := DefaultConfig().LeafSetSize / 2
		ok := map[int]bool{}
		for k := 1; k <= half; k++ {
			ok[m.sorted[(i+k)%n]] = true
			ok[m.sorted[((i-k)%n+n)%n]] = true
		}
		for _, l := range leaves {
			if !ok[l] {
				t.Fatalf("slot %d has non-adjacent leaf %d", s, l)
			}
		}
	}
}

func TestTableEntriesShareCorrectPrefix(t *testing.T) {
	m := buildMesh(t, 200, 7)
	for s := 0; s < 200; s++ {
		for r := 0; r < Digits; r++ {
			for c := 0; c < Cols; c++ {
				e := m.TableEntry(s, r, c)
				if e < 0 {
					continue
				}
				if sharedPrefix(m.ID[s], m.ID[e]) != r {
					t.Fatalf("entry (%d,%d) of slot %d shares %d digits, want exactly %d",
						r, c, s, sharedPrefix(m.ID[s], m.ID[e]), r)
				}
				if digit(m.ID[e], r) != c {
					t.Fatalf("entry (%d,%d) of slot %d has digit %d", r, c, s, digit(m.ID[e], r))
				}
			}
		}
	}
	if m.TableEntry(0, -1, 0) != -1 || m.TableEntry(0, 0, 99) != -1 {
		t.Fatal("out-of-range TableEntry should be -1")
	}
}

func TestOwnerIsCircularlyClosest(t *testing.T) {
	m := buildMesh(t, 64, 9)
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		key := RandomKey(r)
		owner := m.Owner(key)
		for s := 0; s < 64; s++ {
			if ringDist(m.ID[s], key) < ringDist(m.ID[owner], key) {
				t.Fatalf("owner %d (dist %d) beaten by %d (dist %d) for key %d",
					owner, ringDist(m.ID[owner], key), s, ringDist(m.ID[s], key), key)
			}
		}
	}
}

func TestLookupFindsOwner(t *testing.T) {
	m := buildMesh(t, 256, 11)
	r := rng.New(77)
	for i := 0; i < 500; i++ {
		src := r.Intn(256)
		key := RandomKey(r)
		res, err := m.Lookup(src, key, nil)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if res.Owner != m.Owner(key) {
			t.Fatalf("reached %d, owner is %d", res.Owner, m.Owner(key))
		}
		if res.Path[0] != src || res.Path[len(res.Path)-1] != res.Owner {
			t.Fatalf("path endpoints wrong: %v", res.Path)
		}
	}
}

func TestLookupLogarithmicHops(t *testing.T) {
	m := buildMesh(t, 1024, 13)
	r := rng.New(1)
	total := 0
	const lookups = 300
	for i := 0; i < lookups; i++ {
		res, err := m.Lookup(r.Intn(1024), RandomKey(r), nil)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Hops
	}
	if avg := float64(total) / lookups; avg > 6 {
		// Pastry expects ~log_16(1024) ≈ 2.5 hops.
		t.Fatalf("average hops %.1f too high for n=1024", avg)
	}
}

func TestLookupProcessingDelay(t *testing.T) {
	m := buildMesh(t, 128, 31)
	r := rng.New(4)
	src := r.Intn(128)
	key := RandomKey(r)
	base, err := m.Lookup(src, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	withProc, err := m.Lookup(src, key, func(int) float64 { return 9 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withProc.Latency-base.Latency-float64(base.Hops)*9) > 1e-9 {
		t.Fatalf("processing delay accounting off")
	}
}

func TestLookupFromDeadSlot(t *testing.T) {
	m := buildMesh(t, 16, 2)
	if _, err := m.Lookup(999, 1, nil); err == nil {
		t.Fatal("lookup from invalid slot accepted")
	}
}

func TestProximityReducesLinkLatency(t *testing.T) {
	hosts := hostsN(400)
	plain, err := Build(hosts, Config{LeafSetSize: 8}, lat, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	prox, err := Build(hosts, Config{LeafSetSize: 8, Proximity: true}, lat, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	if prox.O.MeanLinkLatency() >= plain.O.MeanLinkLatency() {
		t.Fatalf("proximity mesh link latency %.1f not below plain %.1f",
			prox.O.MeanLinkLatency(), plain.O.MeanLinkLatency())
	}
	// Proximity routing must stay correct.
	r := rng.New(6)
	for i := 0; i < 300; i++ {
		key := RandomKey(r)
		res, err := prox.Lookup(r.Intn(400), key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner != prox.Owner(key) {
			t.Fatal("proximity lookup reached wrong owner")
		}
	}
}

func TestLookupTerminatesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(120)
		m, err := Build(hostsN(n), DefaultConfig(), lat, r)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			key := RandomKey(r)
			res, err := m.Lookup(r.Intn(n), key, nil)
			if err != nil || res.Owner != m.Owner(key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSwapHostsPreservesRouting(t *testing.T) {
	m := buildMesh(t, 128, 17)
	r := rng.New(2)
	for i := 0; i < 50; i++ {
		u, v := r.Intn(128), r.Intn(128)
		if u != v {
			if err := m.O.SwapHosts(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 300; i++ {
		key := RandomKey(r)
		res, err := m.Lookup(r.Intn(128), key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner != m.Owner(key) {
			t.Fatal("routing broken after host swaps")
		}
	}
}

func TestRefreshPlainMeshIsStable(t *testing.T) {
	m := buildMesh(t, 100, 23)
	before := m.O.Logical.Edges()
	m.Refresh(lat)
	after := m.O.Logical.Edges()
	if len(before) != len(after) {
		t.Fatalf("plain refresh changed edge count %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("plain refresh changed edge %d", i)
		}
	}
}

func TestRefreshProximityAdaptsToSwaps(t *testing.T) {
	hosts := hostsN(200)
	m, err := Build(hosts, Config{LeafSetSize: 8, Proximity: true}, lat, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	for i := 0; i < 100; i++ {
		u, v := r.Intn(200), r.Intn(200)
		if u != v {
			m.O.SwapHosts(u, v)
		}
	}
	stale := m.O.MeanLinkLatency()
	m.Refresh(lat)
	fresh := m.O.MeanLinkLatency()
	if fresh > stale {
		t.Fatalf("refresh made proximity links worse: %.1f -> %.1f", stale, fresh)
	}
	// Routing still correct after refresh.
	for i := 0; i < 200; i++ {
		key := RandomKey(r)
		res, err := m.Lookup(r.Intn(200), key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner != m.Owner(key) {
			t.Fatal("lookup broken after refresh")
		}
	}
}

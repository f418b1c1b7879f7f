package kademlia

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
		hosts[i] = i * 4
	}
	return hosts
}

func buildNet(t testing.TB, n int, seed uint64) *Net {
	t.Helper()
	net, err := Build(hostsN(n), DefaultConfig(), lat, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(hostsN(1), DefaultConfig(), lat, rng.New(1)); err == nil {
		t.Error("single node accepted")
	}
	if _, err := Build(hostsN(8), Config{K: 0}, lat, rng.New(1)); err == nil {
		t.Error("zero K accepted")
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		a, b uint32
		want int
	}{
		{0, 1, 0},
		{0, 2, 1},
		{0, 3, 1},
		{0, 1 << 31, 31},
		{0xFFFFFFFF, 0x7FFFFFFF, 31},
		{5, 5, -1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.a, c.b); got != c.want {
			t.Errorf("bucketIndex(%#x,%#x) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBucketsRespectRangeAndCapacity(t *testing.T) {
	net := buildNet(t, 200, 42)
	for s := 0; s < 200; s++ {
		for bi := 0; bi < Bits; bi++ {
			bucket := net.Bucket(s, bi)
			if len(bucket) > DefaultConfig().K {
				t.Fatalf("slot %d bucket %d over capacity: %d", s, bi, len(bucket))
			}
			for _, c := range bucket {
				if got := bucketIndex(net.ID[s], net.ID[c]); got != bi {
					t.Fatalf("slot %d bucket %d holds contact of bucket %d", s, bi, got)
				}
			}
		}
	}
	if net.Bucket(0, -1) != nil || net.Bucket(0, Bits) != nil {
		t.Fatal("out-of-range bucket should be nil")
	}
}

func TestOwnerIsXORClosest(t *testing.T) {
	net := buildNet(t, 64, 9)
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		key := RandomKey(r)
		owner := net.Owner(key)
		for s := 0; s < 64; s++ {
			if net.ID[s]^key < net.ID[owner]^key {
				t.Fatalf("owner %d not XOR-closest for key %d", owner, key)
			}
		}
	}
}

func TestLookupFindsOwner(t *testing.T) {
	net := buildNet(t, 256, 11)
	r := rng.New(77)
	for i := 0; i < 500; i++ {
		key := RandomKey(r)
		res, err := net.Lookup(r.Intn(256), key, nil)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if res.Owner != net.Owner(key) || res.Path[len(res.Path)-1] != res.Owner {
			t.Fatalf("lookup mismatch: %+v", res)
		}
	}
}

func TestLookupLogarithmicHops(t *testing.T) {
	net := buildNet(t, 1024, 13)
	r := rng.New(1)
	total := 0
	const lookups = 300
	for i := 0; i < lookups; i++ {
		res, err := net.Lookup(r.Intn(1024), RandomKey(r), nil)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Hops
	}
	if avg := float64(total) / lookups; avg > 8 {
		t.Fatalf("average hops %.1f too high for n=1024", avg)
	}
}

func TestLookupProcessingDelay(t *testing.T) {
	net := buildNet(t, 128, 31)
	r := rng.New(4)
	src, key := r.Intn(128), RandomKey(r)
	base, err := net.Lookup(src, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	withProc, err := net.Lookup(src, key, func(int) float64 { return 6 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withProc.Latency-base.Latency-float64(base.Hops)*6) > 1e-9 {
		t.Fatal("processing delay accounting off")
	}
}

func TestLookupFromDeadSlot(t *testing.T) {
	net := buildNet(t, 16, 2)
	if _, err := net.Lookup(999, 1, nil); err == nil {
		t.Fatal("lookup from invalid slot accepted")
	}
}

func TestProximityReducesLinkLatency(t *testing.T) {
	hosts := hostsN(400)
	plain, err := Build(hosts, Config{K: 8}, lat, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	prox, err := Build(hosts, Config{K: 8, Proximity: true}, lat, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	if prox.O.MeanLinkLatency() >= plain.O.MeanLinkLatency() {
		t.Fatalf("proximity links %.1f not below plain %.1f",
			prox.O.MeanLinkLatency(), plain.O.MeanLinkLatency())
	}
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
		n := 2 + r.Intn(100)
		net, err := Build(hostsN(n), DefaultConfig(), lat, r)
		if err != nil {
			return false
		}
		for i := 0; i < 15; i++ {
			key := RandomKey(r)
			res, err := net.Lookup(r.Intn(n), key, nil)
			if err != nil || res.Owner != net.Owner(key) {
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
	net := buildNet(t, 128, 17)
	r := rng.New(2)
	for i := 0; i < 60; i++ {
		u, v := r.Intn(128), r.Intn(128)
		if u != v {
			if err := net.O.SwapHosts(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 300; i++ {
		key := RandomKey(r)
		res, err := net.Lookup(r.Intn(128), key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner != net.Owner(key) {
			t.Fatal("routing broken after host swaps")
		}
	}
}

func TestRefresh(t *testing.T) {
	// Plain refresh is a no-op on the edge set.
	plain := buildNet(t, 100, 23)
	before := plain.O.Logical.Edges()
	plain.Refresh(lat)
	after := plain.O.Logical.Edges()
	if len(before) != len(after) {
		t.Fatalf("plain refresh changed edges %d -> %d", len(before), len(after))
	}
	// Proximity refresh after swaps improves links.
	prox, err := Build(hostsN(200), Config{K: 8, Proximity: true}, lat, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	for i := 0; i < 100; i++ {
		u, v := r.Intn(200), r.Intn(200)
		if u != v {
			prox.O.SwapHosts(u, v)
		}
	}
	stale := prox.O.MeanLinkLatency()
	prox.Refresh(lat)
	if prox.O.MeanLinkLatency() > stale {
		t.Fatal("proximity refresh made links worse")
	}
}

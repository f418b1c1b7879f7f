package chord

import (
	"testing"

	"repro/internal/rng"
)

func TestJoinGrowsRing(t *testing.T) {
	ring := buildRing(t, 32, 1)
	r := rng.New(9)
	slot, err := ring.Join(99991, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(ring.sorted) != 33 || !ring.O.Alive(slot) {
		t.Fatalf("size=%d alive=%v", len(ring.sorted), ring.O.Alive(slot))
	}
	// Ring order must remain sorted and include the newcomer.
	for i := 1; i < len(ring.sorted); i++ {
		if ring.ID[ring.sorted[i-1]] >= ring.ID[ring.sorted[i]] {
			t.Fatal("sorted order broken after join")
		}
	}
	// Lookups (from and to the newcomer) must work.
	key := RandomKey(r)
	res, err := ring.Lookup(slot, key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Owner != ring.Owner(key) {
		t.Fatal("lookup from joiner broken")
	}
}

func TestJoinLookupCorrect(t *testing.T) {
	ring := buildRing(t, 32, 2)
	r := rng.New(5)
	for i := 0; i < 10; i++ {
		if _, err := ring.Join(90000+i, r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		key := RandomKey(r)
		src := ring.sorted[r.Intn(len(ring.sorted))]
		res, err := ring.Lookup(src, key)
		if err != nil {
			t.Fatalf("lookup after joins: %v", err)
		}
		if res.Owner != ring.Owner(key) {
			t.Fatal("lookup reached wrong owner after joins")
		}
	}
}

func TestJoinDuplicateHostRejected(t *testing.T) {
	ring := buildRing(t, 8, 3)
	r := rng.New(1)
	host := ring.O.HostOf(ring.sorted[0])
	if _, err := ring.Join(host, r); err == nil {
		t.Fatal("join with in-use host accepted")
	}
}

func TestLeaveShrinksRing(t *testing.T) {
	ring := buildRing(t, 32, 4)
	r := rng.New(7)
	victim := ring.sorted[10]
	if err := ring.Leave(victim, nil); err != nil {
		t.Fatal(err)
	}
	if len(ring.sorted) != 31 || ring.O.Alive(victim) {
		t.Fatalf("size=%d alive=%v", len(ring.sorted), ring.O.Alive(victim))
	}
	if err := ring.Leave(victim, nil); err == nil {
		t.Fatal("double leave accepted")
	}
	// No finger or successor may reference the dead slot.
	for _, s := range ring.sorted {
		for _, f := range ring.fingers[s] {
			if f == victim {
				t.Fatalf("slot %d finger still references dead %d", s, victim)
			}
		}
		for _, sc := range ring.succ[s] {
			if sc == victim {
				t.Fatalf("slot %d successor list still references dead %d", s, victim)
			}
		}
	}
	// Lookups stay correct.
	for i := 0; i < 300; i++ {
		key := RandomKey(r)
		src := ring.sorted[r.Intn(len(ring.sorted))]
		res, err := ring.Lookup(src, key)
		if err != nil {
			t.Fatalf("lookup after leave: %v", err)
		}
		if res.Owner != ring.Owner(key) {
			t.Fatal("lookup reached wrong owner after leave")
		}
	}
}

func TestLeaveRefusesTinyRing(t *testing.T) {
	ring := buildRing(t, 2, 5)
	if err := ring.Leave(ring.sorted[0], nil); err == nil {
		t.Fatal("shrinking below 2 accepted")
	}
}

// (The churn-storm property test formerly here is superseded by the shared
// ChurnPhase conformance check in internal/dhttest, which both DHT
// suites run through the online auditor.)

func TestFixFingersAfterSwaps(t *testing.T) {
	cfg := Config{PNS: true}
	ring, err := Build(hostsN(128), cfg, lat, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 60; i++ {
		u, v := r.Intn(128), r.Intn(128)
		if u != v {
			ring.O.SwapHosts(u, v)
		}
	}
	ring.rebuildNode(5)
	// Fingers of node 5 must again be per-interval nearest.
	s := 5
	for j := 0; j < Bits; j++ {
		start := (uint64(ring.ID[s]) + (uint64(1) << uint(j))) % ringSize
		end := (uint64(ring.ID[s]) + (uint64(1) << uint(j+1))) % ringSize
		want := ring.nearestInInterval(s, start, end)
		if got := ring.fingers[s][j]; got != want {
			t.Fatalf("finger %d = %d, want %d after rebuildNode", j, got, want)
		}
	}
}

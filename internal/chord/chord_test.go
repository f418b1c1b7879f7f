package chord

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

func buildRing(t *testing.T, n int, seed uint64) *Ring {
	t.Helper()
	ring, err := Build(hostsN(n), DefaultConfig(), lat, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(hostsN(1), DefaultConfig(), lat, rng.New(1)); err == nil {
		t.Error("single node accepted")
	}
}

func TestIDsDistinct(t *testing.T) {
	ring := buildRing(t, 500, 42)
	seen := map[uint32]bool{}
	for _, id := range ring.ID {
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
}

func TestSortedOrderAndSuccessors(t *testing.T) {
	ring := buildRing(t, 100, 7)
	for i := 1; i < len(ring.sorted); i++ {
		if ring.ID[ring.sorted[i-1]] >= ring.ID[ring.sorted[i]] {
			t.Fatal("sorted order violated")
		}
	}
	// succ[s][0] must be the next slot in ring order.
	for i, s := range ring.sorted {
		want := ring.sorted[(i+1)%len(ring.sorted)]
		if got := ring.Successors(s)[0]; got != want {
			t.Fatalf("successor of slot %d = %d, want %d", s, got, want)
		}
	}
}

func TestOwnerOf(t *testing.T) {
	ring := buildRing(t, 50, 3)
	// The owner of a node's own ID is the node itself.
	for _, s := range ring.sorted {
		if got := ring.Owner(ring.ID[s]); got != s {
			t.Fatalf("Owner(ID[%d]) = %d", s, got)
		}
	}
	// The owner of ID+1 is the next node (unless ID+1 is that node's ID).
	first := ring.sorted[0]
	last := ring.sorted[len(ring.sorted)-1]
	if got := ring.Owner(ring.ID[last] + 1); got != first {
		t.Fatalf("wraparound owner = %d, want %d", got, first)
	}
}

func TestFingersCorrect(t *testing.T) {
	ring := buildRing(t, 200, 11)
	for _, s := range ring.sorted {
		for j := 0; j < Bits; j++ {
			start := (uint64(ring.ID[s]) + (uint64(1) << uint(j))) % ringSize
			want := ring.ownerOf(start)
			if got := ring.fingers[s][j]; got != want {
				t.Fatalf("finger %d of slot %d = %d, want %d", j, s, got, want)
			}
		}
	}
}

func TestLogicalGraphConnected(t *testing.T) {
	ring := buildRing(t, 300, 5)
	if !ring.O.Connected() {
		t.Fatal("chord overlay not connected")
	}
	// Successor links alone form a cycle, so min degree >= 2.
	if md := ring.O.Logical.MinDegree(); md < 2 {
		t.Fatalf("min degree = %d", md)
	}
}

func TestLookupFindsOwner(t *testing.T) {
	ring := buildRing(t, 256, 9)
	r := rng.New(77)
	for i := 0; i < 500; i++ {
		src := r.Intn(256)
		key := RandomKey(r)
		res, err := ring.Lookup(src, key)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if res.Owner != ring.Owner(key) {
			t.Fatalf("lookup reached %d, owner is %d", res.Owner, ring.Owner(key))
		}
	}
}

func TestLookupLogarithmicHops(t *testing.T) {
	ring := buildRing(t, 1024, 13)
	r := rng.New(1)
	totalHops := 0
	const lookups = 300
	for i := 0; i < lookups; i++ {
		res, err := ring.Lookup(r.Intn(1024), RandomKey(r))
		if err != nil {
			t.Fatal(err)
		}
		totalHops += res.Hops
	}
	avg := float64(totalHops) / lookups
	// log2(1024) = 10; average Chord path is ~log2(n)/2 = 5.
	if avg > 12 {
		t.Fatalf("average hops %.1f too high for n=1024", avg)
	}
	if avg < 1 {
		t.Fatalf("average hops %.1f suspiciously low", avg)
	}
}

func TestLookupSelfKey(t *testing.T) {
	ring := buildRing(t, 64, 21)
	s := ring.sorted[10]
	res, err := ring.Lookup(s, ring.ID[s])
	if err != nil {
		t.Fatal(err)
	}
	if res.Owner != s || res.Hops != 0 || res.Latency != 0 {
		t.Fatalf("self lookup: %+v", res)
	}
}

func TestLookupFromDeadSlot(t *testing.T) {
	ring := buildRing(t, 16, 2)
	if _, err := ring.Lookup(999, 1); err == nil {
		t.Fatal("lookup from invalid slot accepted")
	}
}

func TestPNSReducesLinkLatency(t *testing.T) {
	hosts := hostsN(400)
	plain, err := Build(hosts, Config{}, lat, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	pns, err := Build(hosts, Config{PNS: true}, lat, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	if pns.O.MeanLinkLatency() >= plain.O.MeanLinkLatency() {
		t.Fatalf("PNS mean link latency %.1f not below plain %.1f",
			pns.O.MeanLinkLatency(), plain.O.MeanLinkLatency())
	}
	// PNS must still route correctly.
	r := rng.New(6)
	for i := 0; i < 200; i++ {
		key := RandomKey(r)
		res, err := pns.Lookup(r.Intn(400), key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner != pns.Owner(key) {
			t.Fatal("PNS lookup reached wrong owner")
		}
	}
}

func TestInInterval(t *testing.T) {
	cases := []struct {
		id, a, b uint64
		want     bool
	}{
		{5, 3, 8, true},
		{8, 3, 8, true},
		{3, 3, 8, false},
		{9, 3, 8, false},
		{1, 250, 10, true}, // wrapping
		{255, 250, 10, true},
		{100, 250, 10, false},
		{7, 7, 7, true}, // full circle
	}
	for _, c := range cases {
		if got := inInterval(c.id, c.a, c.b); got != c.want {
			t.Errorf("inInterval(%d,%d,%d) = %v", c.id, c.a, c.b, got)
		}
	}
}

func TestInIntervalOpen(t *testing.T) {
	cases := []struct {
		id, a, b uint64
		want     bool
	}{
		{5, 3, 8, true},
		{8, 3, 8, false},
		{3, 3, 8, false},
		{1, 250, 10, true},
		{250, 250, 10, false},
		{7, 7, 7, false},
		{9, 7, 7, true},
	}
	for _, c := range cases {
		if got := inIntervalOpen(c.id, c.a, c.b); got != c.want {
			t.Errorf("inIntervalOpen(%d,%d,%d) = %v", c.id, c.a, c.b, got)
		}
	}
}

func TestLookupAlwaysTerminatesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(100)
		ring, err := Build(hostsN(n), DefaultConfig(), lat, r)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			key := RandomKey(r)
			res, err := ring.Lookup(r.Intn(n), key)
			if err != nil || res.Owner != ring.Owner(key) {
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
	// The PROP-G claim: exchanging identifiers (hosts under slots) leaves
	// every lookup correct, only latency changes.
	ring := buildRing(t, 128, 17)
	r := rng.New(2)
	for i := 0; i < 50; i++ {
		u, v := r.Intn(128), r.Intn(128)
		if u != v {
			if err := ring.O.SwapHosts(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 200; i++ {
		key := RandomKey(r)
		res, err := ring.Lookup(r.Intn(128), key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner != ring.Owner(key) {
			t.Fatal("routing broken after host swaps")
		}
	}
}

// TestPNSFingersMatchScan holds every PNS finger of a seeded ring, before
// and after exchanges move hosts, to a scan of the whole sorted ring: the
// nearest slot of the finger's interval, the first in sorted order among
// equal latencies, else ownerOf(start). The latency has few values, so ties
// are common, and the highest fingers' intervals wrap zero.
func TestPNSFingersMatchScan(t *testing.T) {
	tied := func(a, b int) float64 { return float64((a ^ b) % 4) }
	ring, err := Build(hostsN(300), Config{PNS: true}, tied, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	scan := func(s int, start, end uint64) (best, ties int, wraps bool) {
		best, bestD := -1, math.Inf(1)
		for _, c := range ring.sorted {
			id := uint64(ring.ID[c])
			in := id >= start && id < end
			if start > end {
				in = id >= start || id < end
			}
			if !in || c == s {
				continue
			}
			wraps = wraps || start > end
			switch d := tied(ring.O.HostOf(s), ring.O.HostOf(c)); {
			case d < bestD:
				best, bestD, ties = c, d, 0
			case d == bestD:
				ties++
			}
		}
		if best < 0 {
			best = ring.ownerOf(start)
		}
		return best, ties, wraps
	}
	r := rng.New(4)
	for round := 0; round < 2; round++ {
		var tiedFingers, wrapping int
		for _, s := range ring.sorted {
			for j := 0; j < Bits; j++ {
				start := (uint64(ring.ID[s]) + uint64(1)<<uint(j)) % ringSize
				end := (uint64(ring.ID[s]) + uint64(1)<<uint(j+1)) % ringSize
				want, ties, wraps := scan(s, start, end)
				if got := ring.fingers[s][j]; got != want {
					t.Fatalf("round %d: slot %d finger %d = %d, want %d", round, s, j, got, want)
				}
				if ties > 0 {
					tiedFingers++
				}
				if wraps {
					wrapping++
				}
			}
		}
		if tiedFingers == 0 || wrapping == 0 {
			t.Fatalf("round %d: %d fingers chosen among ties, %d over wrapping intervals; want both", round, tiedFingers, wrapping)
		}
		for i := 0; i < 100; i++ {
			ring.O.SwapHosts(r.Intn(300), r.Intn(300))
		}
		ring.Refresh()
	}
}

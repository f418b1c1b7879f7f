package can

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// liveAreasSum returns the total area of live zones.
func liveAreasSum(sp *Space) float64 {
	total := 0.0
	for _, s := range sp.O.AliveSlots() {
		total += sp.Zones[s].Area()
	}
	return total
}

func TestJoinAddsZone(t *testing.T) {
	sp := buildSpace(t, 16, 1)
	slot, err := sp.Join(99991, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !sp.O.Alive(slot) {
		t.Fatal("joiner not alive")
	}
	if !sp.Zones[slot].Contains(sp.JoinPoint[slot]) {
		t.Fatalf("joiner zone %+v does not contain its point", sp.Zones[slot])
	}
	if math.Abs(liveAreasSum(sp)-1) > 1e-9 {
		t.Fatalf("areas sum to %v after join", liveAreasSum(sp))
	}
	// Routing to the new zone works.
	res, err := sp.Route(0, center(sp.Zones[slot]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Owner != slot {
		t.Fatalf("route reached %d, want joiner %d", res.Owner, slot)
	}
}

func TestLeaveSimpleMerge(t *testing.T) {
	// Two nodes: leaving is refused (floor of 2). Three nodes: the last
	// joiner's sibling is a leaf, so leaving it must merge cleanly.
	sp := buildSpace(t, 3, 2)
	victim := 2
	if err := sp.Leave(victim, nil); err != nil {
		t.Fatal(err)
	}
	if sp.O.Alive(victim) {
		t.Fatal("victim still alive")
	}
	if math.Abs(liveAreasSum(sp)-1) > 1e-9 {
		t.Fatalf("areas sum to %v after leave", liveAreasSum(sp))
	}
}

func TestLeaveErrors(t *testing.T) {
	sp := buildSpace(t, 2, 3)
	if err := sp.Leave(0, nil); err == nil {
		t.Fatal("shrinking below 2 accepted")
	}
	sp4 := buildSpace(t, 4, 3)
	if err := sp4.Leave(99, nil); err == nil {
		t.Fatal("leave of unknown slot accepted")
	}
	if err := sp4.Leave(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := sp4.Leave(1, nil); err == nil {
		t.Fatal("double leave accepted")
	}
}

// (The churn-storm property test formerly here is superseded by the shared
// ChurnPhase conformance check in internal/dhttest, which both DHT
// suites run through the online auditor.)

func TestZonesNeverOverlapUnderChurn(t *testing.T) {
	r := rng.New(5)
	sp, err := Build(hostsN(30), Config{}, lat, r)
	if err != nil {
		t.Fatal(err)
	}
	nextHost := 80000
	for op := 0; op < 40; op++ {
		if r.Bool(0.4) && sp.O.NumAlive() > 5 {
			alive := sp.O.AliveSlots()
			if err := sp.Leave(alive[r.Intn(len(alive))], nil); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := sp.Join(nextHost, r); err != nil {
				t.Fatal(err)
			}
			nextHost++
		}
	}
	// Sample points: each must be in exactly one live zone.
	for i := 0; i < 1000; i++ {
		p := RandomPoint(r)
		count := 0
		for _, s := range sp.O.AliveSlots() {
			if sp.Zones[s].Contains(p) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("point %+v in %d live zones", p, count)
		}
	}
}

func TestJoinPointForPIS(t *testing.T) {
	hosts := hostsN(50)
	sp, err := Build(hosts, Config{Landmarks: []int{hosts[0], hosts[49]}}, lat, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	// A host physically identical to host 3 must land in host 3's strip.
	p := sp.joinPoint(hosts[3]+1, r)
	q := sp.JoinPoint[3]
	if math.Abs(p.X-q.X) > 0.5+1e-9 {
		t.Fatalf("PIS join point X=%v far from similar host's %v", p.X, q.X)
	}
}

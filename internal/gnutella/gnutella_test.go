package gnutella

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func lat(a, b int) float64 { return math.Abs(float64(a - b)) }

func hostsN(n int) []int {
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i * 2
	}
	return hosts
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(hostsN(10), Config{LinksPerJoin: 0}, lat, rng.New(1)); err == nil {
		t.Error("zero LinksPerJoin accepted")
	}
	if _, err := Build(hostsN(1), DefaultConfig(), lat, rng.New(1)); err == nil {
		t.Error("single-peer overlay accepted")
	}
}

func TestBuildConnectedAndMinDegree(t *testing.T) {
	o, err := Build(hostsN(500), DefaultConfig(), lat, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if !o.Connected() {
		t.Fatal("overlay not connected")
	}
	if md := o.Logical.MinDegree(); md < 4 {
		t.Fatalf("min degree = %d, want >= 4", md)
	}
}

func TestBuildHeavyTail(t *testing.T) {
	o, err := Build(hostsN(2000), DefaultConfig(), lat, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	degs := o.Logical.DegreeSequence() // ascending
	maxDeg := degs[len(degs)-1]
	medDeg := degs[len(degs)/2]
	// Preferential attachment: the hub degree should dwarf the median.
	if maxDeg < 4*medDeg {
		t.Fatalf("no heavy tail: max degree %d, median %d", maxDeg, medDeg)
	}
	// Early joiners should be the hubs (Fig. 7 relies on this).
	topSlots := make([]int, 0, 20)
	type sd struct{ slot, deg int }
	var all []sd
	for s := 0; s < o.NumSlots(); s++ {
		all = append(all, sd{s, o.Degree(s)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].deg > all[j].deg })
	early := 0
	for _, x := range all[:20] {
		topSlots = append(topSlots, x.slot)
		if x.slot < 200 {
			early++
		}
	}
	if early < 10 {
		t.Fatalf("only %d of top-20 hubs are early joiners: %v", early, topSlots)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, _ := Build(hostsN(300), DefaultConfig(), lat, rng.New(3))
	b, _ := Build(hostsN(300), DefaultConfig(), lat, rng.New(3))
	ea, eb := a.Logical.Edges(), b.Logical.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestBuildEdgeCountProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(200)
		k := 1 + r.Intn(5)
		o, err := Build(hostsN(n), Config{LinksPerJoin: k}, lat, r)
		if err != nil {
			return false
		}
		// Each joiner i adds min(i, k) edges.
		want := 0
		for i := 1; i < n; i++ {
			if i < k {
				want += i
			} else {
				want += k
			}
		}
		return o.Logical.NumEdges() == want && o.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestJoin(t *testing.T) {
	r := rng.New(9)
	o, err := Build(hostsN(50), DefaultConfig(), lat, r)
	if err != nil {
		t.Fatal(err)
	}
	g := Net{o, DefaultConfig()}
	slot, err := g.Join(9999, r)
	if err != nil {
		t.Fatal(err)
	}
	if o.Degree(slot) != 4 {
		t.Fatalf("joiner degree = %d, want 4", o.Degree(slot))
	}
	if !o.Connected() {
		t.Fatal("join broke connectivity")
	}
	if _, err := g.Join(9999, r); err == nil {
		t.Error("duplicate host join accepted")
	}
	if _, err := (Net{o, Config{LinksPerJoin: 0}}).Join(1234, r); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestLeaveKeepsConnectivity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(80)
		o, err := Build(hostsN(n), DefaultConfig(), lat, r)
		if err != nil {
			return false
		}
		// Kill a quarter of the peers one at a time.
		g := Net{o, DefaultConfig()}
		for i := 0; i < n/4; i++ {
			alive := o.AliveSlots()
			victim := alive[r.Intn(len(alive))]
			if err := g.Leave(victim, r); err != nil {
				return false
			}
			if !o.Connected() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveErrors(t *testing.T) {
	r := rng.New(1)
	o, _ := Build(hostsN(10), DefaultConfig(), lat, r)
	g := Net{o, DefaultConfig()}
	if err := g.Leave(99, r); err == nil {
		t.Error("leave of unknown slot accepted")
	}
	if err := g.Leave(3, r); err != nil {
		t.Fatal(err)
	}
	if err := g.Leave(3, r); err == nil {
		t.Error("double leave accepted")
	}
}

func TestLeaveRestoresMinDegree(t *testing.T) {
	r := rng.New(5)
	o, _ := Build(hostsN(100), DefaultConfig(), lat, r)
	g := Net{o, DefaultConfig()}
	for i := 0; i < 20; i++ {
		alive := o.AliveSlots()
		if err := g.Leave(alive[r.Intn(len(alive))], r); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range o.AliveSlots() {
		if o.Degree(s) < 4 {
			t.Fatalf("slot %d degree %d after churn, want >= 4", s, o.Degree(s))
		}
	}
}

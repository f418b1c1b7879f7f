package shard

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph/graphtest"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// TestEstLatMatchesOracle holds estLat to netsim.Oracle over the same world,
// regenerated from the seed as New does: bit for bit between peers of
// different stub domains, and never below it between peers of one domain
// (priced through their router). It checks every pair of the tiny world for
// three seeds (one with faults) and 10⁵ sampled pairs of ScaleTS(32768), and
// that the timeouts come from the largest exact leg, 2·max offset + max
// router-table entry.
func TestEstLatMatchesOracle(t *testing.T) {
	scale := netsim.ScaleTS(32768)
	cases := []struct {
		cfg   Config
		pairs int // 0: all pairs
	}{
		{tinyConfig(8, 1), 0},
		{tinyConfig(8, 2), 0},
		{faultyConfig(8, 3), 0},
		{Config{Net: &scale, Seed: 5, Faults: &FaultConfig{LossProb: 0.02, JitterMS: 5}}, 100000},
	}
	for _, c := range cases {
		e, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		world, err := netsim.Generate(*c.cfg.Net, rng.New(c.cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		o := netsim.NewOracle(world)
		n := int32(e.Peers())
		check := func(p, q int32) {
			hp, hq := world.StubHosts[p], world.StubHosts[q]
			got, want := e.estLat(p, q), o.Latency(hp, hq)
			if world.StubDomain[hp] != world.StubDomain[hq] && math.Float64bits(got) != math.Float64bits(want) || got < want {
				t.Fatalf("%s seed %d: estLat(%d,%d) = %v, oracle %v", c.cfg.Net.Name, c.cfg.Seed, p, q, got, want)
			}
		}
		if c.pairs == 0 {
			for p := int32(0); p < n; p++ {
				for q := int32(0); q < n; q++ {
					check(p, q)
				}
			}
		} else {
			r := rand.New(rand.NewSource(int64(c.cfg.Seed)))
			for i := 0; i < c.pairs; i++ {
				check(r.Int31n(n), r.Int31n(n))
			}
		}
		// Routers are nodes [0, TotalTransit), the core in table order.
		maxOff, maxCore := 0.0, 0.0
		for p := int32(0); p < n; p++ {
			maxOff = max(maxOff, o.Latency(world.StubHosts[p], int(e.up[p].router)))
		}
		for a := 0; a < c.cfg.Net.TotalTransit(); a++ {
			for b := 0; b < c.cfg.Net.TotalTransit(); b++ {
				maxCore = max(maxCore, o.Latency(a, b))
			}
		}
		maxLeg := 2*maxOff + maxCore + e.fc.JitterMS
		if probeTO, commitTO := float64(walkHops+1)*maxLeg+1, 2*maxLeg+1; e.probeTO != probeTO || e.commitTO != commitTO {
			t.Fatalf("%s seed %d: timeouts %v/%v, exact-leg %v/%v", c.cfg.Net.Name, c.cfg.Seed, e.probeTO, e.commitTO, probeTO, commitTO)
		}
	}
}

// TestFloodWeightsMatchPerEdgeEstimate pins the flood-weight invariant
// (DESIGN.md §12): after a faulty run — crashed peers, so vacant slots and
// +Inf weights — every FloodInto row over w equals, bit for bit, the
// graphtest reference over the logical adjacency, which derives each edge
// latency through the snapshot per relaxation and skips vacant slots, from
// every alive source.
func TestFloodWeightsMatchPerEdgeEstimate(t *testing.T) {
	quiet, err := New(faultyConfig(4, 11))
	if err != nil {
		t.Fatal(err)
	}
	if err := quiet.Run(nil, ""); err != nil {
		t.Fatal(err)
	}
	if quiet.fs.w != nil {
		t.Error("an unsampled run allocated the flood weights")
	}
	_, e := runTiny(t, faultyConfig(4, 11))
	f := e.FloodSource().(*floodSource)
	if len(f.alive) == e.n {
		t.Fatal("faulty run left no vacant slot")
	}
	if len(f.w) != len(e.lNbr) {
		t.Fatalf("len(w) = %d, want one weight per directed logical edge (%d)", len(f.w), len(e.lNbr))
	}
	arcs := func(u int, visit func(int, float64) bool) {
		p := f.peerAt[u]
		for _, t := range e.nbrs(int32(u)) {
			if q := f.peerAt[t]; q >= 0 && !visit(int(t), e.estLat(p, q)) {
				return
			}
		}
	}
	got := make([]float64, e.n)
	for _, src := range f.alive {
		f.FloodInto(src, got)
		want := graphtest.Dijkstra(e.n, src, arcs, nil)
		for s := range got {
			if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
				t.Fatalf("row %d slot %d: %v over w, %v per-edge", src, s, got[s], want[s])
			}
		}
	}
	w0 := &f.w[0]
	e.FloodSource()
	if &f.w[0] != w0 {
		t.Error("second refresh reallocated the weight array")
	}
}

// TestMsgHeapKeySlabSplit drives the event heap with a seeded mix of
// self-timers and payload messages whose arrival times collide, pushes and
// pops interleaved: every pop must be the (at, origin, oseq)-minimum of
// what is pending, equal field for field to the msg that was pushed (a
// timer comes back with from == to == origin and its cycle counter), and
// the slab must never outgrow the peak number of payload messages in
// flight.
func TestMsgHeapKeySlabSplit(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var h msgHeap
	var pending []msg
	var oseq [16]uint32
	inFlight, peak := 0, 0
	pop := func() {
		sort.Slice(pending, func(i, j int) bool {
			x, y := &pending[i], &pending[j]
			if x.at != y.at {
				return x.at < y.at
			}
			if x.origin != y.origin {
				return x.origin < y.origin
			}
			return x.oseq < y.oseq
		})
		want := pending[0]
		pending = pending[1:]
		if at := h.min().at; at != want.at {
			t.Fatalf("min().at = %v, want %v", at, want.at)
		}
		if got := h.pop(); got != want {
			t.Fatalf("popped %+v, want %+v", got, want)
		}
		if !want.kind.timer() {
			inFlight--
		}
	}
	for op := 0; op < 6000; op++ {
		if len(pending) > 0 && r.Intn(5) < 2 {
			pop()
			continue
		}
		origin := int32(r.Intn(len(oseq)))
		m := msg{at: float64(r.Intn(12)), origin: origin, oseq: oseq[origin], from: origin, to: origin, kind: kind(r.Intn(int(kCommitTO) + 1))}
		oseq[origin]++
		if m.kind.timer() {
			m.c = r.Int31()
		} else {
			m.to, m.a, m.b, m.c = r.Int31(), r.Int31(), r.Int31(), r.Int31()
			m.hops, m.rlen = uint8(r.Intn(256)), uint8(r.Intn(maxDeg+1))
			for i := range m.row {
				m.row[i] = r.Int31()
			}
			inFlight++
			peak = max(peak, inFlight)
		}
		h.push(m)
		pending = append(pending, m)
		if len(h.slab) > peak {
			t.Fatalf("slab grew to %d with at most %d payload messages ever in flight", len(h.slab), peak)
		}
	}
	for len(pending) > 0 {
		pop()
	}
	if h.len() != 0 || len(h.free) != len(h.slab) {
		t.Fatalf("drained heap holds %d keys, %d of %d slab entries free", h.len(), len(h.free), len(h.slab))
	}
}

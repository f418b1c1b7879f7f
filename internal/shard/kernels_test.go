package shard

import (
	"math"
	"math/rand"
	"reflect"
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

// TestMsgHeapKeySlabSplit drives the event queue with a seeded mix of
// self-timers and payload messages whose arrival times spread over 48
// bucket widths, hit exact bucket boundaries and collide, with pushes
// (some below the drained edge), pops and advances interleaved. Every pop
// must be the (at, origin, oseq)-minimum of what is pending, equal field
// for field to the msg that was pushed (a timer comes back with
// from == to == origin and its cycle counter); after advance(t) no key
// before t may wait in the far tier; the slab must never outgrow the peak
// number of payload messages in flight, nor the chunks carved the peak
// far keys / chunkKeys plus the peak number of live buckets.
func TestMsgHeapKeySlabSplit(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var q msgQueue
	var pending []msg
	var oseq [16]uint32
	now := 0.0
	inFlight, peakSlab, peakFar, peakLive, belowEdge := 0, 0, 0, 0, 0
	live := map[int64]bool{}
	minimum := func() int { // the reference: a linear scan in key order
		best := 0
		for i := range pending {
			x, y := &pending[i], &pending[best]
			if x.at < y.at || x.at == y.at && (x.origin < y.origin || x.origin == y.origin && x.oseq < y.oseq) {
				best = i
			}
		}
		return best
	}
	pop := func() {
		best := minimum()
		want := pending[best]
		pending = append(pending[:best], pending[best+1:]...)
		if k := q.next(); k == nil || k.at != want.at {
			t.Fatalf("next() = %+v, want at %v", k, want.at)
		}
		if got := q.pop(); got != want {
			t.Fatalf("popped %+v, want %+v", got, want)
		}
		if !want.kind.timer() {
			inFlight--
		}
	}
	for op := 0; op < 20000; op++ {
		switch c := r.Intn(10); {
		case c < 3 && len(pending) > 0 && pending[minimum()].at < now:
			// Due, as in a window: advance(now) put it in the near tier.
			if len(q.near) == 0 {
				t.Fatalf("a key before %v is due but the near tier is empty", now)
			}
			pop()
			continue
		case c == 3 && len(pending) > 0:
			// Run's minAt: drain until the near tier holds the minimum.
			if k, want := q.next(), pending[minimum()]; k == nil || k.at != want.at || k.origin != want.origin || k.oseq != want.oseq {
				t.Fatalf("next() = %+v, want %+v", k, want)
			}
			continue
		case c == 4:
			now += r.Float64() * bucketMS / 2
			q.advance(now)
			near := 0
			for i := range pending {
				b := bucketOf(pending[i].at)
				if pending[i].at < now && b >= q.edge {
					t.Fatalf("advance(%v) left key at %v in far bucket %d (edge %d)", now, pending[i].at, b, q.edge)
				}
				if b < q.edge {
					near++
				}
			}
			if len(q.near) != near || q.far != len(pending)-near {
				t.Fatalf("after advance(%v): %d near, %d far keys, want %d, %d", now, len(q.near), q.far, near, len(pending)-near)
			}
			continue
		}
		origin := int32(r.Intn(len(oseq)))
		m := msg{origin: origin, oseq: oseq[origin], from: origin, to: origin, kind: kind(r.Intn(int(kCommitTO) + 1))}
		oseq[origin]++
		switch r.Intn(4) {
		case 0: // an exact bucket boundary
			m.at = float64(bucketOf(now)+int64(r.Intn(48))) * bucketMS
		case 1: // below the drained edge
			m.at = now + r.Float64()*(float64(q.edge)*bucketMS-now)
		case 2: // a collision with a pending arrival
			if len(pending) > 0 {
				m.at = pending[r.Intn(len(pending))].at
				break
			}
			fallthrough
		default:
			m.at = now + r.Float64()*48*bucketMS
		}
		if bucketOf(m.at) < q.edge {
			belowEdge++
		}
		if m.kind.timer() {
			m.c = r.Int31()
		} else {
			m.to, m.a, m.b, m.c = r.Int31(), r.Int31(), r.Int31(), r.Int31()
			m.hops, m.rlen = uint8(r.Intn(256)), uint8(r.Intn(maxDeg+1))
			for i := range m.row {
				m.row[i] = r.Int31()
			}
			inFlight++
			peakSlab = max(peakSlab, inFlight)
		}
		q.push(m)
		pending = append(pending, m)
		clear(live)
		for i := range pending {
			if b := bucketOf(pending[i].at); b >= q.edge {
				live[b] = true
			}
		}
		peakFar, peakLive = max(peakFar, q.far), max(peakLive, len(live))
		if len(q.slab) > peakSlab {
			t.Fatalf("slab grew to %d with at most %d payload messages ever in flight", len(q.slab), peakSlab)
		}
		if bound := (peakFar+chunkKeys-1)/chunkKeys + peakLive; int(q.chunks) > bound {
			t.Fatalf("%d chunks carved, want ≤ %d (peak %d far keys in %d buckets)", q.chunks, bound, peakFar, peakLive)
		}
	}
	if q.edge < 40 || peakFar < 10*chunkKeys || belowEdge == 0 {
		t.Fatalf("the calendar went unexercised: edge %d, peak %d far keys, %d pushes below the edge", q.edge, peakFar, belowEdge)
	}
	for len(pending) > 0 {
		pop()
	}
	if q.next() != nil || q.far != 0 || len(q.free) != len(q.slab) {
		t.Fatalf("drained queue holds %d near, %d far keys, %d of %d slab entries free", len(q.near), q.far, len(q.free), len(q.slab))
	}
}

// TestRunReleasesQueues pins the release at the end of Run: a finished
// engine keeps no event queue storage.
func TestRunReleasesQueues(t *testing.T) {
	_, e := runTiny(t, faultyConfig(4, 11))
	for _, sh := range e.shards {
		if !reflect.DeepEqual(sh.queue, msgQueue{}) {
			t.Fatalf("shard %d keeps its queue after Run: %d near keys, %d ring slots, %d blocks, %d slab entries",
				sh.id, cap(sh.queue.near), len(sh.queue.ring), len(sh.queue.blocks), cap(sh.queue.slab))
		}
	}
}

package shard

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// estLatRef is the landmark minimum as one plain loop with one accumulator.
func estLatRef(e *Engine, p, q int32) float64 {
	if p == q {
		return 0
	}
	k := e.nLandmarks
	best := math.Inf(1)
	for l := 0; l < k; l++ {
		if v := float64(e.coord[int(p)*k+l]) + float64(e.coord[int(q)*k+l]); v < best {
			best = v
		}
	}
	return best
}

// TestEstLatMatchesSingleAccumulator holds the four-accumulator estLat to
// the plain loop bit for bit, across landmark counts on both sides of the
// unroll width (Config.Net admits any domain count), with unreachable
// (+Inf) coordinates mixed in and p == q included.
func TestEstLatMatchesSingleAccumulator(t *testing.T) {
	const peers = 24
	r := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 4, 5, 8, 16} {
		e := &Engine{nLandmarks: k, coord: make([]float32, peers*k)}
		for i := range e.coord {
			e.coord[i] = roundUp32(r.Float64() * 300)
			if r.Intn(16) == 0 {
				e.coord[i] = float32(math.Inf(1))
			}
		}
		for p := int32(0); p < peers; p++ {
			for q := int32(0); q < peers; q++ {
				got, want := e.estLat(p, q), estLatRef(e, p, q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("k=%d estLat(%d,%d) = %v, single accumulator %v", k, p, q, got, want)
				}
			}
		}
	}
}

// floodRef is the reference flood: Dijkstra over the logical CSR that
// derives each edge latency (through the snapshot) per relaxation and
// skips vacant slots, with no weight array.
func floodRef(f *floodSource, src int, dist []float64) {
	e := f.e
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	var h flHeap
	dist[src] = 0
	h.push(flItem{d: 0, s: int32(src)})
	for len(h.a) > 0 {
		it := h.pop()
		if it.d > dist[it.s] {
			continue
		}
		p := f.peerAt[it.s]
		for _, t := range e.nbrs(it.s) {
			q := f.peerAt[t]
			if q < 0 {
				continue
			}
			if d := it.d + estLatRef(e, p, q); d < dist[t] {
				dist[t] = d
				h.push(flItem{d: d, s: t})
			}
		}
	}
}

// TestFloodWeightsMatchPerEdgeEstimate pins the flood-weight invariant
// (DESIGN.md §12): after a faulty run — crashed peers, so vacant slots and
// +Inf weights — every FloodInto row over w equals, bit for bit, the
// reference Dijkstra that derives each edge latency per relaxation, from
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
	got, want := make([]float64, e.n), make([]float64, e.n)
	for _, src := range f.alive {
		f.FloodInto(src, got)
		floodRef(f, src, want)
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

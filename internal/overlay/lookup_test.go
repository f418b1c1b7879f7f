package overlay

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// asymLat is hashLat made direction-dependent: lat(a,b) ≠ lat(b,a), so a
// flood view that stored an arc with its arguments reversed — or one entry
// per undirected link — cannot agree with the reference.
func asymLat(a, b int) float64 {
	if a < b {
		return hashLat(a, b) + 0.5
	}
	return hashLat(a, b)
}

// quantLat is a 5 ms-quantised latency, as on the transit-stub networks whose
// links weigh 5/20/50 ms: arrival times tie everywhere, which is where a
// queue's order among equal keys would show if anything read it.
func quantLat(a, b int) float64 { return 5 * float64(1+pairHash(a, b)%60) }

// refFlood is the reference the flood kernel is held to, and shares no code
// with it: Dijkstra without a queue — settle the unsettled live slot of least
// tentative time, found by a linear scan — with adjacency from
// VisitNeighbors, liveness from Alive and one lat call per relaxed arc. It
// returns the arrival row as far as it was computed and the arrival at the
// first settled slot of stop (+Inf if none is reached).
func refFlood(o *Overlay, src int, proc ProcDelayFunc, stop map[int]bool) ([]float64, float64) {
	inf := math.Inf(1)
	dist := make([]float64, o.NumSlots())
	for i := range dist {
		dist[i] = inf
	}
	if !o.Alive(src) {
		return dist, inf
	}
	dist[src] = 0
	settled := make([]bool, o.NumSlots())
	for {
		u := -1
		for v, d := range dist {
			if !settled[v] && d < inf && (u < 0 || d < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist, inf
		}
		if stop[u] {
			return dist, dist[u]
		}
		settled[u] = true
		o.Logical.VisitNeighbors(u, func(nb int, _ float64) bool {
			if !o.Alive(nb) {
				return true
			}
			nd := dist[u] + o.lat(o.hostOf[u], o.hostOf[nb])
			if proc != nil {
				nd += proc(nb)
			}
			if nd < dist[nb] {
				dist[nb] = nd
			}
			return true
		})
	}
}

// checkFloodsAgainstRef floods from a few random slots (dead ones included)
// and asserts bit-equality of all three query shapes with refFlood.
func checkFloodsAgainstRef(t *testing.T, o *Overlay, r *rng.Rand, tag string) {
	t.Helper()
	n := o.NumSlots()
	row := make([]float64, n)
	for _, proc := range []ProcDelayFunc{nil, testProc} {
		for k := 0; k < 3; k++ {
			src := r.Intn(n)
			want, _ := refFlood(o, src, proc, nil)
			o.FloodLatenciesInto(src, proc, row)
			for i := range want {
				if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: row %d entry %d = %v, reference %v", tag, src, i, row[i], want[i])
				}
			}
			dst := r.Intn(n)
			wantOne := math.Inf(1)
			if o.Alive(dst) {
				_, wantOne = refFlood(o, src, proc, map[int]bool{dst: true})
			}
			if got := o.FloodLatency(src, dst, proc); math.Float64bits(got) != math.Float64bits(wantOne) {
				t.Fatalf("%s: FloodLatency(%d,%d) = %v, reference %v", tag, src, dst, got, wantOne)
			}
			dsts := []int{r.Intn(n), r.Intn(n), r.Intn(n), dst}
			stop := map[int]bool{}
			for _, d := range dsts {
				if o.Alive(d) {
					stop[d] = true
				}
			}
			_, wantAny := refFlood(o, src, proc, stop)
			if got := o.FloodLatencyAny(src, dsts, proc); math.Float64bits(got) != math.Float64bits(wantAny) {
				t.Fatalf("%s: FloodLatencyAny(%d,%v) = %v, reference %v", tag, src, dsts, got, wantAny)
			}
		}
	}
}

// TestFloodViewMatchesReference drives a seeded random schedule of every
// mutation that can move the flood view — host swaps, PROP-O trades, joins,
// graceful leaves, crashes with stale edges, eviction, purge, and rewires
// applied straight to Logical as the DHT repair paths do — and holds every
// flood query to the queue-free reference bit for bit, under an irregular, a
// direction-dependent and a tie-ridden latency function in turn. Checks run
// only after some steps, so the view also has to survive several mutations
// between floods.
func TestFloodViewMatchesReference(t *testing.T) {
	lats := []LatencyFunc{hashLat, asymLat, quantLat}
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		o := randomFloodOverlay(t, r, 40, 60)
		o.lat = lats[seed%3]
		nextHost := 1000
		pick := func() int { return o.AliveSlotAt(r.Intn(o.NumAlive())) }
		for step := 0; step < 300; step++ {
			u, v := pick(), pick()
			switch op := r.Intn(9); {
			case op == 0 && u != v:
				if err := o.SwapHosts(u, v); err != nil {
					t.Fatal(err)
				}
			case op == 1 && u != v:
				// A trade the §3.1 checks may refuse; refusal leaves the overlay as it was.
				a, b := o.Neighbors(u), o.Neighbors(v)
				if len(a) > 0 && len(b) > 0 {
					_ = o.ExchangeNeighbors(u, v, []int{a[r.Intn(len(a))]}, []int{b[r.Intn(len(b))]}, nil)
				}
			case op == 2:
				s, err := o.AddSlot(nextHost)
				if err != nil {
					t.Fatal(err)
				}
				nextHost += 3
				for _, nb := range []int{u, v} {
					if err := o.AddEdge(s, nb); err != nil {
						t.Fatal(err)
					}
				}
			case op == 3 && o.NumAlive() > 20:
				if err := o.RemoveSlot(u); err != nil {
					t.Fatal(err)
				}
			case op == 4 && o.NumAlive() > 20:
				if err := o.CrashSlot(u); err != nil {
					t.Fatal(err)
				}
			case op == 5:
				o.EvictDeadNeighbors(u)
			case op == 6:
				if c := o.CrashedSlots(); len(c) > 0 {
					if err := o.PurgeCrashed(c[r.Intn(len(c))]); err != nil {
						t.Fatal(err)
					}
				}
			case op == 7 && u != v:
				o.Logical.MustAddEdge(u, v, 1)
			case op == 8:
				if nbs := o.Neighbors(u); len(nbs) > 0 {
					o.Logical.RemoveEdge(u, nbs[r.Intn(len(nbs))])
				}
			}
			if r.Intn(2) == 0 {
				checkFloodsAgainstRef(t, o, r, "live")
			}
			if step%50 == 49 {
				c := o.Clone()
				if c.view.stamp.Load() != 0 || c.view.nbr != nil {
					t.Fatal("Clone carried the flood view over")
				}
				checkFloodsAgainstRef(t, c, r, "clone")
			}
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// liveArcs counts what one flood-view build must ask the latency function:
// both directions of every logical link whose endpoints are both alive.
func liveArcs(o *Overlay) int64 {
	arcs := int64(0)
	for _, e := range o.Logical.Edges() {
		if o.Alive(e.U) && o.Alive(e.V) {
			arcs += 2
		}
	}
	return arcs
}

// TestFloodViewBuiltExactlyOncePerState: eight goroutines flooding straight
// after a mutation cost one latency call per live arc in total — one of them
// rebuilds, the rest wait — and floods of an unchanged overlay cost none.
// That is what keeps oracle.queries a pure function of the seed (DESIGN.md
// §8). Run with -race -count=10.
func TestFloodViewBuiltExactlyOncePerState(t *testing.T) {
	r := rng.New(3)
	o := randomFloodOverlay(t, r, 64, 96)
	var calls atomic.Int64
	o.lat = func(a, b int) float64 {
		calls.Add(1)
		return asymLat(a, b)
	}
	if err := o.CrashSlot(5); err != nil { // stale edges: live arcs < 2·NumEdges
		t.Fatal(err)
	}
	want, _ := refFlood(o, 0, nil, nil)
	floodAll := func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				dst := 10 + g
				if got := o.FloodLatency(0, dst, nil); got != want[dst] {
					t.Errorf("FloodLatency(0,%d) = %v, want %v", dst, got, want[dst])
				}
			}(g)
		}
		wg.Wait()
	}
	mutations := []func(){
		func() {}, // the first build
		func() { o.SwapHosts(1, 2); o.SwapHosts(1, 2) },
		func() { o.Logical.RemoveEdge(20, 21); o.Logical.MustAddEdge(20, 21, 1) },
		func() { o.EvictDeadNeighbors(4); o.EvictDeadNeighbors(6) },
	}
	for i, mutate := range mutations {
		mutate() // each leaves distances as they were and the view stale
		calls.Store(0)
		floodAll()
		if got := calls.Load(); got != liveArcs(o) {
			t.Fatalf("mutation %d: %d latency calls across 8 concurrent floods, want %d (one per live arc)", i, got, liveArcs(o))
		}
		floodAll()
		if got := calls.Load(); got != liveArcs(o) {
			t.Fatalf("mutation %d: floods of an unchanged overlay made %d latency calls", i, got-liveArcs(o))
		}
	}
}

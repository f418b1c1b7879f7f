package overlay

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph/graphtest"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// hashLat is a deterministic pseudo-random symmetric latency for flood
// tests: positive, irregular (so float ties are rare but sums are exact
// enough for the bit-equality assertions), and a pure function of the host
// pair.
func hashLat(a, b int) float64 { return 1 + float64(pairHash(a, b)%4096)/64 }

// pairHash mixes an unordered host pair into 64 bits.
func pairHash(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	x := uint64(a)*2654435761 + uint64(b)*40503
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return x
}

// testProc is a nonzero per-slot processing delay exercising the proc term
// of the flood arithmetic.
func testProc(slot int) float64 { return float64(slot%3) * 0.25 }

// randomFloodOverlay builds an n-slot overlay on distinct hosts with a ring
// plus extra random chords — connected, average degree ~2+2·extra/n.
func randomFloodOverlay(t *testing.T, r *rng.Rand, n, extra int) *Overlay {
	t.Helper()
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = 3*i + 1
	}
	o, err := New(hosts, hashLat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := o.AddEdge(i, (i+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !o.Logical.HasEdge(u, v) {
			if err := o.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return o
}

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

// referenceRow is the row every flood query is held to: the graphtest
// Dijkstra from src over the live arcs — adjacency from VisitNeighbors,
// liveness from Alive, one lat call per relaxed arc — with proc added as the
// flood kernels add it.
func referenceRow(o *Overlay, src int, proc ProcDelayFunc) []float64 {
	if !o.Alive(src) {
		src = -1 // a dead source reaches nothing, itself included
	}
	return graphtest.Dijkstra(o.NumSlots(), src, func(u int, visit func(int, float64) bool) {
		o.Logical.VisitNeighbors(u, func(nb int, _ float64) bool {
			return !o.Alive(nb) || visit(nb, o.lat(o.hostOf[u], o.hostOf[nb]))
		})
	}, proc)
}

// checkFloodsAgainstRef floods from a few random slots (dead ones included)
// and asserts bit-equality of all three query shapes with referenceRow: the
// first arrival at one slot is its entry, at the nearest of several the
// least entry among the live ones.
func checkFloodsAgainstRef(t *testing.T, o *Overlay, r *rng.Rand, tag string) {
	t.Helper()
	n := o.NumSlots()
	row := make([]float64, n)
	for _, proc := range []ProcDelayFunc{nil, testProc} {
		for k := 0; k < 3; k++ {
			src := r.Intn(n)
			want := referenceRow(o, src, proc)
			o.FloodLatenciesInto(src, proc, row)
			for i := range want {
				if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: row %d entry %d = %v, reference %v", tag, src, i, row[i], want[i])
				}
			}
			dst := r.Intn(n)
			if got := o.FloodLatency(src, dst, proc); math.Float64bits(got) != math.Float64bits(want[dst]) {
				t.Fatalf("%s: FloodLatency(%d,%d) = %v, reference %v", tag, src, dst, got, want[dst])
			}
			dsts := []int{r.Intn(n), r.Intn(n), r.Intn(n), dst}
			wantAny := math.Inf(1)
			for _, d := range dsts {
				wantAny = min(wantAny, want[d])
			}
			if got := o.FloodLatencyAny(src, dsts, proc); math.Float64bits(got) != math.Float64bits(wantAny) {
				t.Fatalf("%s: FloodLatencyAny(%d,%v) = %v, reference %v", tag, src, dsts, got, wantAny)
			}
		}
	}
}

// mutateFloodOverlay applies one seeded random mutation of a kind that can
// move the flood view — a host swap, a PROP-O trade, a join (hosts *nextHost,
// +3, …), a graceful leave, a crash with stale edges, eviction, purge, or a
// rewire applied straight to Logical as the DHT repair paths do. Some draws
// are no-ops.
func mutateFloodOverlay(t *testing.T, o *Overlay, r *rng.Rand, nextHost *int) {
	t.Helper()
	pick := func() int { return o.AliveSlotAt(r.Intn(o.NumAlive())) }
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
		s, err := o.AddSlot(*nextHost)
		if err != nil {
			t.Fatal(err)
		}
		*nextHost += 3
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
}

// TestFloodViewMatchesReference drives a seeded random schedule of every
// mutation that can move the flood view (mutateFloodOverlay) and holds every
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
		for step := 0; step < 300; step++ {
			mutateFloodOverlay(t, o, r, &nextHost)
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

// Order-free latency functions (floodView): whole milliseconds, symmetric.
// zeroLat is propnode's nil Lat; zeroArcLat mixes zero-weight arcs in.
func zeroLat(a, b int) float64    { return 0 }
func zeroArcLat(a, b int) float64 { return 5 * float64(pairHash(a, b)%4) }

// viewOrderFree builds the flood view of o's current state, as any flood
// does, and reports which kernel FloodLatency(·, ·, nil) runs on it:
// floodPoint if true, floodRun if false.
func viewOrderFree(o *Overlay) bool {
	o.floodArcs()
	return o.view.orderFree
}

// TestFloodViewOrderFreeGate pins the gate clause by clause. The last four
// functions break LatencyFunc's contract or the flood's precondition; the
// test builds their views and floods none.
func TestFloodViewOrderFreeGate(t *testing.T) {
	// oneArc is quantLat but for the link between the hosts of slots 0 and 1.
	oneArc := func(x float64) LatencyFunc {
		return func(a, b int) float64 {
			if (a == 1 && b == 4) || (a == 4 && b == 1) {
				return x
			}
			return quantLat(a, b)
		}
	}
	for _, tc := range []struct {
		name string
		lat  LatencyFunc
		want bool
	}{
		{"quantLat", quantLat, true},
		{"all zero", zeroLat, true},
		{"integers with zero arcs", zeroArcLat, true},
		{"one arc of 2^31-1", oneArc(1<<31 - 1), true},
		{"hashLat", hashLat, false},
		{"asymLat", asymLat, false},
		{"integer but asymmetric", func(a, b int) float64 {
			if a < b {
				return quantLat(a, b) + 5
			}
			return quantLat(a, b)
		}, false},
		{"one arc of 2^31", oneArc(1 << 31), false},
		{"one arc of +Inf", oneArc(math.Inf(1)), false},
		{"one arc of NaN", oneArc(math.NaN()), false},
		{"one negative arc", oneArc(-5), false},
		{"one arc of 2.5", oneArc(2.5), false},
	} {
		o := randomFloodOverlay(t, rng.New(4), 60, 90)
		o.lat = tc.lat
		if got := viewOrderFree(o); got != tc.want {
			t.Errorf("%s: view order-free = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// checkPointFloodsAgainstRef holds FloodLatency(src, dst, nil) for every
// ordered pair of slots — dead sources, dead destinations and src == dst
// included — to referenceRow from src, bit for bit.
func checkPointFloodsAgainstRef(t *testing.T, o *Overlay, tag string) {
	t.Helper()
	for src := 0; src < o.NumSlots(); src++ {
		for dst, w := range referenceRow(o, src, nil) {
			if got := o.FloodLatency(src, dst, nil); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: FloodLatency(%d,%d) = %v, reference %v (order-free view: %v)",
					tag, src, dst, got, w, o.view.orderFree)
			}
		}
	}
}

// TestFloodPointMatchesReference holds the two-ended kernel to the queue-free,
// one-ended reference on every pair of slots: under each order-free latency
// function, first on two components with a dead slot in each (unreachable
// pairs read +Inf), then through the mutation schedule of
// TestFloodViewMatchesReference. Under the fourth function hosts 1000, 1006, …
// (every other joiner) sit half a millisecond off the grid, so the view leaves
// the order-free state when one joins and re-enters it when the last one has
// left, and both kernels answer in one schedule.
func TestFloodPointMatchesReference(t *testing.T) {
	offGrid := func(a, b int) float64 {
		if (a >= 1000 && a%2 == 0) || (b >= 1000 && b%2 == 0) {
			return quantLat(a, b) + 0.5
		}
		return quantLat(a, b)
	}
	for i, lat := range []LatencyFunc{quantLat, zeroLat, zeroArcLat, offGrid} {
		r := rng.New(uint64(20 + i))
		o := randomFloodOverlay(t, r, 60, 0)
		o.lat = lat
		// Cut the ring into slots 0–29 and 30–59, 30 random chords each, none across.
		o.Logical.RemoveEdge(29, 30)
		o.Logical.RemoveEdge(59, 0)
		o.Logical.MustAddEdge(29, 0, 1)
		o.Logical.MustAddEdge(59, 30, 1)
		for k := 0; k < 60; k++ {
			half := k / 30 * 30
			if u, v := half+r.Intn(30), half+r.Intn(30); u != v && !o.Logical.HasEdge(u, v) {
				o.Logical.MustAddEdge(u, v, 1)
			}
		}
		for _, dead := range []int{7, 41} {
			if err := o.RemoveSlot(dead); err != nil {
				t.Fatal(err)
			}
		}
		if !viewOrderFree(o) {
			t.Fatalf("lat %d: initial view not order-free", i)
		}
		if d := o.FloodLatency(3, 50, nil); !math.IsInf(d, 1) {
			t.Fatalf("lat %d: FloodLatency across components = %v, want +Inf", i, d)
		}
		checkPointFloodsAgainstRef(t, o, "two components")

		nextHost := 1000
		states := map[bool]int{}
		for step := 0; step < 120; step++ {
			mutateFloodOverlay(t, o, r, &nextHost)
			if r.Intn(6) == 0 {
				states[viewOrderFree(o)]++
				checkPointFloodsAgainstRef(t, o, "live")
			}
		}
		if i < 3 && states[false] > 0 {
			t.Fatalf("lat %d: %d checks ran on a view that was not order-free", i, states[false])
		}
		if i == 3 && (states[true] == 0 || states[false] == 0) {
			t.Fatalf("off-grid joiners: checks by view state %v, want both states visited", states)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFloodViewOrderFreeOnTransitStub pins the property floodPoint depends on to
// the real input: oracle distances over a generated transit-stub network are
// whole milliseconds and symmetric, so an overlay over its stub hosts floods
// point to point with the two-ended kernel. If link weights ever stop being
// integers this fails here, not as a slower ledger three PRs later.
func TestFloodViewOrderFreeOnTransitStub(t *testing.T) {
	net, err := netsim.Generate(netsim.TSSmall(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var hosts []int
	for i := 0; i < len(net.StubHosts); i += 12 { // 200 hosts over every stub domain
		hosts = append(hosts, net.StubHosts[i])
	}
	o, err := New(hosts, netsim.NewOracle(net).Latency)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	for s := range hosts {
		o.Logical.MustAddEdge(s, (s+1)%len(hosts), 1)
		if v := r.Intn(len(hosts)); v != s && !o.Logical.HasEdge(s, v) {
			o.Logical.MustAddEdge(s, v, 1)
		}
	}
	want := referenceRow(o, 0, nil)[100]
	if got := o.FloodLatency(0, 100, nil); got != want {
		t.Fatalf("FloodLatency(0,100) = %v, reference %v", got, want)
	}
	if !o.view.orderFree {
		t.Fatal("the flood view over ts-small oracle latencies is not order-free: FloodLatency has lost its two-ended kernel")
	}
}

// FuzzFloodPoint: bytes → an overlay of 2–16 slots, slot i on host i, built
// and mutated by three-byte records (a, b, c): c < 192 links slots a and b,
// c < 224 swaps their hosts, otherwise slot a leaves. The link records also
// fill, before any is applied, a symmetric table of host-pair latencies —
// hosts a and b lie 5·(c mod 8) ms apart, pairs never named 0 — so the arcs
// built first weigh what their records say and swaps bring other entries,
// repeats and zeros under the links. Every pair is held to referenceRow after each
// mutation and at the end.
func FuzzFloodPoint(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 2, 2, 3, 1, 3, 4, 3, 4, 5, 1})                   // path
	f.Add([]byte{6, 0, 1, 1, 0, 2, 2, 0, 3, 1, 0, 4, 2, 0, 5, 1, 0, 6, 7, 0, 7, 1}) // star
	f.Add([]byte{6, 0, 1, 1, 1, 2, 1, 2, 3, 2, 3, 0, 1, 4, 5, 3, 5, 6, 1, 6, 7, 3,
		1, 5, 200, 2, 0, 230}) // two components, a swap across them, a leave
	f.Add([]byte{3, 0, 1, 0, 1, 2, 8, 2, 3, 0, 3, 4, 16, 4, 0, 0, 0, 2, 0, 1, 3, 8}) // all zero
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 1+3*48 {
			return
		}
		n := 2 + int(data[0])%15
		hosts := make([]int, n)
		for s := range hosts {
			hosts[s] = s
		}
		ms := make([]float64, n*n)
		for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
			if a, b, c := int(rec[0])%n, int(rec[1])%n, rec[2]; c < 192 {
				ms[a*n+b], ms[b*n+a] = 5*float64(c%8), 5*float64(c%8)
			}
		}
		o, err := New(hosts, func(a, b int) float64 { return ms[a*n+b] })
		if err != nil {
			t.Fatal(err)
		}
		for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
			u, v, c := int(rec[0])%n, int(rec[1])%n, rec[2]
			if u == v || !o.Alive(u) || !o.Alive(v) {
				continue
			}
			switch {
			case c < 192:
				if !o.Logical.HasEdge(u, v) {
					o.Logical.MustAddEdge(u, v, 1)
				}
				continue
			case c < 224:
				if err := o.SwapHosts(u, v); err != nil {
					t.Fatal(err)
				}
			case o.NumAlive() > 2:
				if err := o.RemoveSlot(u); err != nil {
					t.Fatal(err)
				}
			}
			checkPointFloodsAgainstRef(t, o, "after mutation")
		}
		if !viewOrderFree(o) {
			t.Fatal("an integer symmetric table, and the view is not order-free")
		}
		checkPointFloodsAgainstRef(t, o, "end")
	})
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
	want := referenceRow(o, 0, nil)
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

package overlay

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// gridLat is a toy latency function: hosts are points on a line, latency is
// their absolute difference. Symmetric and exact, which makes gain
// arithmetic easy to verify by hand.
func gridLat(a, b int) float64 { return math.Abs(float64(a - b)) }

func lineOverlay(t *testing.T, hosts []int) *Overlay {
	t.Helper()
	o, err := New(hosts, gridLat)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]int{1, 2}, nil); err == nil {
		t.Error("nil latency function accepted")
	}
	if _, err := New([]int{1, 1}, gridLat); err == nil {
		t.Error("duplicate host accepted")
	}
}

func TestHostSlotMapping(t *testing.T) {
	o := lineOverlay(t, []int{10, 20, 30})
	if o.NumSlots() != 3 || o.NumAlive() != 3 {
		t.Fatalf("counts: %d slots, %d alive", o.NumSlots(), o.NumAlive())
	}
	if o.HostOf(1) != 20 {
		t.Fatalf("HostOf(1) = %d", o.HostOf(1))
	}
	if o.SlotOfHost(30) != 2 {
		t.Fatalf("SlotOfHost(30) = %d", o.SlotOfHost(30))
	}
	if o.SlotOfHost(99) != -1 {
		t.Fatal("unknown host should map to -1")
	}
	if o.HostOf(-1) != -1 || o.HostOf(5) != -1 {
		t.Fatal("out-of-range slot should map to -1")
	}
}

func TestDistUsesHosts(t *testing.T) {
	o := lineOverlay(t, []int{0, 100})
	if d := o.Dist(0, 1); d != 100 {
		t.Fatalf("Dist = %v", d)
	}
	if err := o.SwapHosts(0, 1); err != nil {
		t.Fatal(err)
	}
	if d := o.Dist(0, 1); d != 100 {
		t.Fatalf("Dist after swap = %v (symmetric, must be unchanged)", d)
	}
	if o.HostOf(0) != 100 || o.HostOf(1) != 0 {
		t.Fatal("hosts not swapped")
	}
	if o.SlotOfHost(100) != 0 || o.SlotOfHost(0) != 1 {
		t.Fatal("reverse mapping not swapped")
	}
}

func TestSwapHostsErrors(t *testing.T) {
	o := lineOverlay(t, []int{0, 1})
	if err := o.SwapHosts(0, 0); err == nil {
		t.Error("identical-slot swap accepted")
	}
	if err := o.SwapHosts(0, 9); err == nil {
		t.Error("out-of-range swap accepted")
	}
}

func TestNeighborLatencySum(t *testing.T) {
	o := lineOverlay(t, []int{0, 10, 25})
	mustEdge(t, o, 0, 1)
	mustEdge(t, o, 0, 2)
	if s := o.NeighborLatencySum(0); s != 35 {
		t.Fatalf("sum = %v, want 35", s)
	}
	if s := o.NeighborLatencySum(1); s != 10 {
		t.Fatalf("sum = %v, want 10", s)
	}
}

func mustEdge(t *testing.T, o *Overlay, u, v int) {
	t.Helper()
	if err := o.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

func TestSwapGainHandComputed(t *testing.T) {
	// Hosts on a line: slot0@0, slot1@100, slot2@1, slot3@99.
	// Edges: 0-3, 1-2. Slot 0 is far from its only neighbor 3 (|0-99|=99),
	// slot 1 far from 2 (|100-1|=99). Swapping hosts of slots 0 and 1
	// yields 0@100 adjacent to 3@99 (1) and 1@0 adjacent to 2@1 (1).
	// Var = (99+99) - (1+1) = 196.
	o := lineOverlay(t, []int{0, 100, 1, 99})
	mustEdge(t, o, 0, 3)
	mustEdge(t, o, 1, 2)
	if g := o.SwapGain(0, 1); g != 196 {
		t.Fatalf("SwapGain = %v, want 196", g)
	}
	// Applying the swap must change MeanLinkLatency accordingly.
	before := o.MeanLinkLatency()
	if err := o.SwapHosts(0, 1); err != nil {
		t.Fatal(err)
	}
	after := o.MeanLinkLatency()
	if math.Abs((before-after)*2-196) > 1e-9 { // 2 links
		t.Fatalf("link latency drop %v inconsistent with gain", (before-after)*2)
	}
}

func TestSwapGainAdjacentPair(t *testing.T) {
	// When u and v are adjacent the shared edge contributes equally before
	// and after; gain must depend only on the other neighbors.
	o := lineOverlay(t, []int{0, 100, 2, 98})
	mustEdge(t, o, 0, 1) // the pair itself
	mustEdge(t, o, 0, 3) // 0@0 to 3@98: 98
	mustEdge(t, o, 1, 2) // 1@100 to 2@2: 98
	// After swap: 0@100-3@98 = 2, 1@0-2@2 = 2. Gain = (98+98)-(2+2) = 192.
	if g := o.SwapGain(0, 1); g != 192 {
		t.Fatalf("SwapGain = %v, want 192", g)
	}
}

func TestSwapGainMatchesActualSwap(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 6 + r.Intn(20)
		hosts := make([]int, n)
		for i := range hosts {
			hosts[i] = i * 7
		}
		o, err := New(hosts, gridLat)
		if err != nil {
			return false
		}
		// Random connected-ish graph.
		for i := 1; i < n; i++ {
			o.AddEdge(i, r.Intn(i))
		}
		for k := 0; k < n; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				o.AddEdge(u, v)
			}
		}
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			return true
		}
		total := func() float64 {
			s := 0.0
			for _, slot := range o.AliveSlots() {
				s += o.NeighborLatencySum(slot)
			}
			return s
		}
		gain := o.SwapGain(u, v)
		before := total()
		if err := o.SwapHosts(u, v); err != nil {
			return false
		}
		after := total()
		// total counts each link twice, and gain counts each affected link
		// once per endpoint-sum: before-after over the two node sums equals
		// gain; over the global double-counted total it is 2*gain minus the
		// doubly-affected (u,v)-incident corrections. Comparing node sums:
		return math.Abs((before-after)-2*gain) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeNeighborsBasic(t *testing.T) {
	// u=0@0 with far neighbor a=2@101; v=1@100 with far neighbor b=3@1.
	// Swapping a and b makes both links short.
	// give a: d(u,a)-d(v,a) = 101-1 = 100; take b: d(v,b)-d(u,b) = 99-1 = 98.
	o := lineOverlay(t, []int{0, 100, 101, 1})
	mustEdge(t, o, 0, 2)
	mustEdge(t, o, 1, 3)
	mustEdge(t, o, 0, 1) // keep u,v connected
	gain := o.ExchangeGain(0, 1, []int{2}, []int{3})
	if gain != 198 {
		t.Fatalf("ExchangeGain = %v, want 198", gain)
	}
	degBefore := []int{o.Degree(0), o.Degree(1), o.Degree(2), o.Degree(3)}
	if err := o.ExchangeNeighbors(0, 1, []int{2}, []int{3}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if !o.Logical.HasEdge(1, 2) || !o.Logical.HasEdge(0, 3) {
		t.Fatal("edges not moved")
	}
	if o.Logical.HasEdge(0, 2) || o.Logical.HasEdge(1, 3) {
		t.Fatal("old edges not removed")
	}
	degAfter := []int{o.Degree(0), o.Degree(1), o.Degree(2), o.Degree(3)}
	for i := range degBefore {
		if degBefore[i] != degAfter[i] {
			t.Fatalf("degree of slot %d changed: %d -> %d", i, degBefore[i], degAfter[i])
		}
	}
}

func TestExchangeNeighborsRejections(t *testing.T) {
	o := lineOverlay(t, []int{0, 10, 20, 30, 40})
	mustEdge(t, o, 0, 2)
	mustEdge(t, o, 0, 3)
	mustEdge(t, o, 1, 3) // 3 adjacent to both 0 and 1
	mustEdge(t, o, 1, 4)
	mustEdge(t, o, 0, 1)

	cases := []struct {
		name       string
		give, take []int
		forbidden  []int
	}{
		{"empty", nil, nil, nil},
		{"unequal", []int{2}, nil, nil},
		{"not-a-neighbor", []int{4}, []int{3}, nil},
		{"would-merge", []int{3}, []int{4}, nil}, // 3 already adjacent to 1
		{"endpoint", []int{1}, []int{4}, nil},
		{"on-path", []int{2}, []int{4}, []int{2}},
		{"duplicate", []int{2, 2}, []int{4, 3}, nil},
	}
	for _, c := range cases {
		if err := o.ExchangeNeighbors(0, 1, c.give, c.take, c.forbidden); err == nil {
			t.Errorf("%s: exchange accepted", c.name)
		}
	}
	// Graph must be unchanged after all the failed attempts.
	if o.Logical.NumEdges() != 5 {
		t.Fatalf("failed exchanges mutated the graph: %d edges", o.Logical.NumEdges())
	}
}

func TestExchangePreservesDegreeSequenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 8 + r.Intn(20)
		hosts := make([]int, n)
		for i := range hosts {
			hosts[i] = i * 3
		}
		o, _ := New(hosts, gridLat)
		for i := 1; i < n; i++ {
			o.AddEdge(i, r.Intn(i))
		}
		for k := 0; k < 2*n; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				o.AddEdge(u, v)
			}
		}
		before := o.Logical.DegreeSequence()
		wasConnected := o.Connected()
		// Attempt a bunch of random exchanges; count the ones that succeed.
		for trial := 0; trial < 30; trial++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			nu, nv := o.Neighbors(u), o.Neighbors(v)
			if len(nu) == 0 || len(nv) == 0 {
				continue
			}
			give := []int{nu[r.Intn(len(nu))]}
			take := []int{nv[r.Intn(len(nv))]}
			// A real caller passes the walk path; here pass the endpoints
			// plus a connectivity witness: the path u..v. Use shortest hop
			// path endpoints only (u,v always implicitly protected by the
			// endpoint rule); for the property we pass just {u,v}.
			o.ExchangeNeighbors(u, v, give, take, []int{u, v})
		}
		after := o.Logical.DegreeSequence()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		_ = wasConnected
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectivityPersistenceUnderPathProtectedExchanges(t *testing.T) {
	// Theorem 1: if the exchanged neighbors avoid the u–v walk path, the
	// overlay stays connected. We emulate the protocol: pick a random walk
	// from u, exchange neighbors not on the path.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(30)
		hosts := make([]int, n)
		for i := range hosts {
			hosts[i] = i
		}
		o, _ := New(hosts, gridLat)
		for i := 1; i < n; i++ {
			o.AddEdge(i, r.Intn(i))
		}
		for k := 0; k < 3*n; k++ {
			a, b := r.Intn(n), r.Intn(n)
			if a != b {
				o.AddEdge(a, b)
			}
		}
		if !o.Connected() {
			return false
		}
		for trial := 0; trial < 50; trial++ {
			u := r.Intn(n)
			nu := o.Neighbors(u)
			if len(nu) == 0 {
				continue
			}
			first := nu[r.Intn(len(nu))]
			path, ok := o.RandomWalk(u, first, 2, r, new(Scratch))
			if !ok {
				continue
			}
			v := path[len(path)-1]
			candU := eligible(o, u, v, path)
			candV := eligible(o, v, u, path)
			if len(candU) == 0 || len(candV) == 0 {
				continue
			}
			give := []int{candU[r.Intn(len(candU))]}
			take := []int{candV[r.Intn(len(candV))]}
			if err := o.ExchangeNeighbors(u, v, give, take, path); err != nil {
				continue
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

// eligible lists neighbors of from that could legally move to to, given path.
func eligible(o *Overlay, from, to int, path []int) []int {
	onPath := map[int]bool{}
	for _, p := range path {
		onPath[p] = true
	}
	var out []int
	for _, x := range o.Neighbors(from) {
		if x == to || onPath[x] || o.Logical.HasEdge(to, x) {
			continue
		}
		out = append(out, x)
	}
	return out
}

func TestRandomWalk(t *testing.T) {
	o := lineOverlay(t, []int{0, 1, 2, 3, 4})
	// Path graph 0-1-2-3-4.
	for i := 0; i < 4; i++ {
		mustEdge(t, o, i, i+1)
	}
	r := rng.New(1)
	path, ok := o.RandomWalk(0, 1, 3, r, new(Scratch))
	if !ok {
		t.Fatalf("walk failed: %v", path)
	}
	want := []int{0, 1, 2, 3} // only one simple path
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// TTL longer than the graph ⇒ stuck ⇒ failure.
	if _, ok := o.RandomWalk(0, 1, 10, r, new(Scratch)); ok {
		t.Fatal("walk should get stuck and fail")
	}
	// Invalid first hop.
	if _, ok := o.RandomWalk(0, 3, 2, r, new(Scratch)); ok {
		t.Fatal("non-neighbor first hop accepted")
	}
	if _, ok := o.RandomWalk(0, 1, 0, r, new(Scratch)); ok {
		t.Fatal("zero TTL accepted")
	}
}

// randomConnectedOverlay draws a random spanning tree plus 2n random chords
// over 10–29 slots.
func randomConnectedOverlay(r *rng.Rand) (o *Overlay, n int) {
	n = 10 + r.Intn(20)
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	o, _ = New(hosts, gridLat)
	for i := 1; i < n; i++ {
		o.AddEdge(i, r.Intn(i))
	}
	for k := 0; k < 2*n; k++ {
		if a, b := r.Intn(n), r.Intn(n); a != b {
			o.AddEdge(a, b)
		}
	}
	return o, n
}

// referenceWalkStep is WalkStep as it was before it took a Scratch: a fresh
// candidate slice filled through VisitNeighbors, one Intn over it.
func referenceWalkStep(o *Overlay, cur int, path []int, r *rng.Rand) (int, bool) {
	var candidates []int
	o.Logical.VisitNeighbors(cur, func(nb int, _ float64) bool {
		if o.Alive(nb) && !slices.Contains(path, nb) {
			candidates = append(candidates, nb)
		}
		return true
	})
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[r.Intn(len(candidates))], true
}

// TestRandomWalkIsIteratedWalkStep: the walk the sequential engine takes in
// one call and the walk the live runtime takes one forwarded message at a
// time — each hop calling WalkStep with the path so far — are the same walk
// from the same generator state, on overlays with crashed slots in them; and
// both are the walk of the pre-Scratch reference, leaving the generator in
// the state the reference leaves it in (same draws, so same run).
func TestRandomWalkIsIteratedWalkStep(t *testing.T) {
	f := func(seed uint64) bool {
		build := rng.New(seed)
		o, n := randomConnectedOverlay(build)
		u := build.Intn(n)
		if err := o.CrashSlot((u + 1 + build.Intn(n-1)) % n); err != nil {
			return false
		}
		nu := o.Neighbors(u)
		if len(nu) == 0 {
			return true
		}
		first, ttl := nu[build.Intn(len(nu))], 1+build.Intn(5)

		wholeR, sc := rng.New(seed+1), new(Scratch)
		whole, wholeOK := o.RandomWalk(u, first, ttl, wholeR, sc)
		whole = slices.Clone(whole) // it is sc.Path, and sc is reused below
		if !o.Alive(first) {
			return whole == nil && !wholeOK
		}
		// iterate walks hop by hop, as the live runtime does.
		iterate := func(step func(cur int, path []int) (int, bool)) (path []int, ok bool) {
			path, ok = []int{u, first}, true
			for len(path) < ttl+1 {
				var next int
				if next, ok = step(path[len(path)-1], path); !ok {
					break
				}
				path = append(path, next)
			}
			return path, ok
		}
		r, ref := rng.New(seed+1), rng.New(seed+1)
		path, ok := iterate(func(cur int, path []int) (int, bool) { return o.WalkStep(cur, path, r, sc) })
		refPath, refOK := iterate(func(cur int, path []int) (int, bool) { return referenceWalkStep(o, cur, path, ref) })
		if ok != wholeOK || refOK != wholeOK || !slices.Equal(path, whole) || !slices.Equal(refPath, whole) {
			return false
		}
		next := ref.Uint64()
		return wholeR.Uint64() == next && r.Uint64() == next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWalkNoRevisits(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		o, n := randomConnectedOverlay(r)
		u := r.Intn(n)
		nu := o.Neighbors(u)
		if len(nu) == 0 {
			return true
		}
		path, ok := o.RandomWalk(u, nu[r.Intn(len(nu))], 1+r.Intn(4), r, new(Scratch))
		if !ok {
			return true
		}
		seen := map[int]bool{}
		for i, p := range path {
			if seen[p] {
				return false
			}
			seen[p] = true
			if i > 0 && !o.Logical.HasEdge(path[i-1], p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStretchAndMeanLinkLatency(t *testing.T) {
	o := lineOverlay(t, []int{0, 10, 30})
	mustEdge(t, o, 0, 1) // 10
	mustEdge(t, o, 1, 2) // 20
	if m := o.MeanLinkLatency(); m != 15 {
		t.Fatalf("MeanLinkLatency = %v", m)
	}
	if s := o.Stretch(5); s != 3 {
		t.Fatalf("Stretch = %v", s)
	}
	if s := o.Stretch(0); s != 0 {
		t.Fatalf("Stretch with zero phys mean = %v", s)
	}
}

func TestAddRemoveSlot(t *testing.T) {
	o := lineOverlay(t, []int{0, 10})
	mustEdge(t, o, 0, 1)
	s, err := o.AddSlot(20)
	if err != nil {
		t.Fatal(err)
	}
	if s != 2 || !o.Alive(2) || o.NumAlive() != 3 {
		t.Fatalf("AddSlot: slot=%d alive=%v count=%d", s, o.Alive(2), o.NumAlive())
	}
	if _, err := o.AddSlot(10); err == nil {
		t.Error("duplicate host accepted by AddSlot")
	}
	mustEdge(t, o, 2, 0)
	if err := o.RemoveSlot(0); err != nil {
		t.Fatal(err)
	}
	if o.Alive(0) || o.NumAlive() != 2 {
		t.Fatal("RemoveSlot did not kill the slot")
	}
	if o.Logical.Degree(0) != 0 {
		t.Fatal("dead slot retains edges")
	}
	if o.SlotOfHost(0) != -1 {
		t.Fatal("dead slot's host still mapped")
	}
	if err := o.RemoveSlot(0); err == nil {
		t.Error("double remove accepted")
	}
	// Freed host can be reused.
	if _, err := o.AddSlot(0); err != nil {
		t.Fatalf("host reuse rejected: %v", err)
	}
}

func TestConnectedWithDeadSlots(t *testing.T) {
	o := lineOverlay(t, []int{0, 1, 2, 3})
	mustEdge(t, o, 0, 1)
	mustEdge(t, o, 1, 2)
	mustEdge(t, o, 2, 3)
	if !o.Connected() {
		t.Fatal("line should be connected")
	}
	// Killing an interior node disconnects the survivors.
	if err := o.RemoveSlot(1); err != nil {
		t.Fatal(err)
	}
	if o.Connected() {
		t.Fatal("survivors should be disconnected")
	}
	mustEdge(t, o, 0, 2)
	if !o.Connected() {
		t.Fatal("repair edge should reconnect")
	}
}

func TestCloneIsolation(t *testing.T) {
	o := lineOverlay(t, []int{0, 10, 20})
	mustEdge(t, o, 0, 1)
	c := o.Clone()
	c.SwapHosts(0, 1)
	c.AddEdge(1, 2)
	if o.HostOf(0) != 0 {
		t.Fatal("clone swap leaked into original")
	}
	if o.Logical.HasEdge(1, 2) {
		t.Fatal("clone edge leaked into original")
	}
}

func TestFloodLatency(t *testing.T) {
	o := lineOverlay(t, []int{0, 10, 30, 100})
	mustEdge(t, o, 0, 1) // 10
	mustEdge(t, o, 1, 2) // 20
	mustEdge(t, o, 0, 3) // 100
	mustEdge(t, o, 3, 2) // 70
	// src 0 -> dst 2: via 1 = 30, via 3 = 170.
	if d := o.FloodLatency(0, 2, nil); d != 30 {
		t.Fatalf("FloodLatency = %v, want 30", d)
	}
	if d := o.FloodLatency(0, 0, nil); d != 0 {
		t.Fatalf("self lookup = %v", d)
	}
	// With processing delays the long way can win: make slot 1 very slow.
	proc := func(slot int) float64 {
		if slot == 1 {
			return 1000
		}
		return 1
	}
	// via 1: 10 + 1000 + 20 + 1 = 1031; via 3: 100 + 1 + 70 + 1 = 172.
	if d := o.FloodLatency(0, 2, proc); d != 172 {
		t.Fatalf("FloodLatency with proc = %v, want 172", d)
	}
}

func TestFloodLatencyUnreachable(t *testing.T) {
	o := lineOverlay(t, []int{0, 10, 20})
	mustEdge(t, o, 0, 1)
	if d := o.FloodLatency(0, 2, nil); !math.IsInf(d, 1) {
		t.Fatalf("unreachable lookup = %v", d)
	}
	o.RemoveSlot(1)
	if d := o.FloodLatency(0, 1, nil); !math.IsInf(d, 1) {
		t.Fatalf("lookup to dead slot = %v", d)
	}
}

func TestFloodLatencyAny(t *testing.T) {
	o := lineOverlay(t, []int{0, 10, 30, 100})
	mustEdge(t, o, 0, 1) // 10
	mustEdge(t, o, 1, 2) // 20
	mustEdge(t, o, 2, 3) // 70
	// Nearest of {2,3} from 0 is 2 at 30.
	if d := o.FloodLatencyAny(0, []int{2, 3}, nil); d != 30 {
		t.Fatalf("FloodLatencyAny = %v, want 30", d)
	}
	// Source among the targets is free.
	if d := o.FloodLatencyAny(0, []int{3, 0}, nil); d != 0 {
		t.Fatalf("self-target = %v", d)
	}
	// Empty and dead targets.
	if d := o.FloodLatencyAny(0, nil, nil); !math.IsInf(d, 1) {
		t.Fatalf("empty targets = %v", d)
	}
	o.RemoveSlot(3)
	if d := o.FloodLatencyAny(0, []int{3}, nil); !math.IsInf(d, 1) {
		t.Fatalf("dead target = %v", d)
	}
	// Must agree with single-target FloodLatency.
	if a, b := o.FloodLatencyAny(0, []int{2}, nil), o.FloodLatency(0, 2, nil); a != b {
		t.Fatalf("Any(%v) != single(%v)", a, b)
	}
}

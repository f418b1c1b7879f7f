package core

// White-box tests for the protocol internals: the neighborQ semantics of
// §3.2 (priority selection, demotion to the tail, reconciliation after
// topology changes) and the trade-selection constraints of §3.1.

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/event"

	"repro/internal/overlay"
	"repro/internal/rng"
)

func tinyOverlay(t *testing.T, hosts []int) *overlay.Overlay {
	t.Helper()
	o, err := overlay.New(hosts, func(a, b int) float64 { return math.Abs(float64(a - b)) })
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// hopOrder is the FirstHop sequence of a copy of p whose every cycle fails
// in warm-up, so each first hop falls to the tail: p's queue in (Prio, seq)
// order.
func hopOrder(p *Peer) []int {
	c := Peer{Queue: slices.Clone(p.Queue), seq: p.seq}
	cfg := DefaultConfig(PROPG)
	cfg.MaxInitTrials = len(c.Queue)
	var order []int
	for range c.Queue {
		nb, _ := c.FirstHop()
		c.Finish(false, cfg)
		order = append(order, nb)
	}
	return order
}

// sortedByNeighbor reports whether q is in ascending neighbor order, each
// neighbor once.
func sortedByNeighbor(q []QueueEntry) bool {
	return slices.IsSortedFunc(q, func(a, b QueueEntry) int { return a.Neighbor - b.Neighbor }) &&
		len(slices.CompactFunc(slices.Clone(q), func(a, b QueueEntry) bool { return a.Neighbor == b.Neighbor })) == len(q)
}

func TestQueueInitIsPermutationOfNeighbors(t *testing.T) {
	var st Peer
	st.Init([]int{1, 2, 3, 4}, rng.New(1))
	if len(st.Queue) != 4 {
		t.Fatalf("queue length %d", len(st.Queue))
	}
	if !sortedByNeighbor(st.Queue) {
		t.Fatalf("queue %v not in ascending neighbor order", st.Queue)
	}
	seen := map[int]bool{}
	for _, qe := range st.Queue {
		if qe.Prio != 0 {
			t.Fatalf("initial priority %d != 0", qe.Prio)
		}
		if seen[qe.Neighbor] {
			t.Fatalf("neighbor %d queued twice", qe.Neighbor)
		}
		seen[qe.Neighbor] = true
	}
	for _, v := range []int{1, 2, 3, 4} {
		if !seen[v] {
			t.Fatalf("neighbor %d missing from queue", v)
		}
	}
	// The permutation is the generator's: the same seed gives the same
	// order, and across seeds every neighbor gets to go first.
	var again Peer
	again.Init([]int{1, 2, 3, 4}, rng.New(1))
	for i := range st.Queue {
		if again.Queue[i] != st.Queue[i] {
			t.Fatalf("same seed, different queue: %v vs %v", again.Queue, st.Queue)
		}
	}
	first := map[int]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		var p Peer
		p.Init([]int{1, 2, 3, 4}, rng.New(seed))
		first[hopOrder(&p)[0]] = true
	}
	if len(first) != 4 {
		t.Fatalf("only %v ever lead the queue over 64 seeds", first)
	}
}

func TestPickFirstHopPrefersLowPriorityThenFIFO(t *testing.T) {
	st := &Peer{
		Queue: []QueueEntry{
			{Neighbor: 7, Prio: 2, seq: 0},
			{Neighbor: 8, Prio: 1, seq: 5},
			{Neighbor: 9, Prio: 1, seq: 3},
		},
	}
	if nb, ok := st.FirstHop(); !ok || nb != 9 {
		t.Fatalf("picked %d/%v, want 9 (lowest prio, earliest seq)", nb, ok)
	}
	if st.Trials != 1 {
		t.Fatalf("FirstHop counted %d trials, want 1", st.Trials)
	}
	empty := &Peer{}
	if _, ok := empty.FirstHop(); ok {
		t.Fatal("empty queue produced a first hop")
	}
	// An empty cycle still counts as a trial and still runs the timer rule.
	cfg := DefaultConfig(PROPG)
	cfg.MaxInitTrials = 1
	empty.TimerMS = cfg.InitTimerMS
	empty.Finish(false, cfg)
	empty.FirstHop()
	if got := empty.Finish(false, cfg); got != 2*cfg.InitTimerMS {
		t.Fatalf("empty-queue failure after warm-up: timer %v, want doubled", got)
	}
}

func TestMaxPrio(t *testing.T) {
	st := &Peer{Queue: []QueueEntry{{Prio: -3}, {Prio: 4}, {Prio: 0}}}
	if st.maxPrio() != 4 {
		t.Fatalf("maxPrio = %d", st.maxPrio())
	}
	if (&Peer{}).maxPrio() != 0 {
		t.Fatal("empty maxPrio != 0")
	}
}

func TestReconcileQueueDropsStaleAddsFresh(t *testing.T) {
	var st Peer
	st.Init([]int{1, 2}, rng.New(2))
	// Bump priorities so the front insertion is observable.
	for i := range st.Queue {
		st.Queue[i].Prio = 5
	}
	// Topology change: drop 1, add 3 and 7 (listed ascending).
	st.Reconcile([]int{2, 3, 7})
	var neighbors []int
	for _, qe := range st.Queue {
		neighbors = append(neighbors, qe.Neighbor)
	}
	if !slices.Equal(neighbors, []int{2, 3, 7}) || !sortedByNeighbor(st.Queue) {
		t.Fatalf("queue = %v, want the survivor and the fresh neighbors in neighbor order [2 3 7]", neighbors)
	}
	if order := hopOrder(&st); !slices.Equal(order, []int{3, 7, 2}) {
		t.Fatalf("first hops %v, want fresh neighbors in listed order, then survivors [3 7 2]", order)
	}
	// The fresh neighbors sit at the queue front (strictly lowest priority —
	// §3.2's churn rule), earliest-listed first.
	if st.Queue[1].Prio >= 5 || st.Queue[1].Prio != st.Queue[2].Prio || st.Queue[1].seq >= st.Queue[2].seq {
		t.Fatalf("fresh standings %d/%d not at front of %d", st.Queue[1].Prio, st.Queue[2].Prio, st.Queue[0].Prio)
	}
	if nb, _ := st.FirstHop(); nb != 3 {
		t.Fatalf("first hop %d, want the earliest-listed fresh neighbor 3", nb)
	}
	// Reconciling against the same neighborhood changes nothing.
	before := append([]QueueEntry(nil), st.Queue...)
	st.Reconcile([]int{2, 3, 7})
	for i := range before {
		if st.Queue[i] != before[i] {
			t.Fatalf("idempotent reconcile changed the queue: %v vs %v", st.Queue, before)
		}
	}
}

// referenceReconcile is Reconcile as it was before it became map-free, kept
// as the specification the scan-based version must reproduce entry for entry.
func referenceReconcile(p *Peer, nbrs []int) {
	inSet := make(map[int]bool, len(nbrs))
	for _, nb := range nbrs {
		inSet[nb] = true
	}
	kept := p.Queue[:0]
	seen := make(map[int]bool, len(p.Queue))
	minPrio := int32(0)
	for _, qe := range p.Queue {
		if inSet[qe.Neighbor] && !seen[qe.Neighbor] {
			kept = append(kept, qe)
			seen[qe.Neighbor] = true
			if qe.Prio < minPrio {
				minPrio = qe.Prio
			}
		}
	}
	p.Queue = kept
	for _, nb := range nbrs {
		if !seen[nb] {
			p.Queue = append(p.Queue, QueueEntry{Neighbor: nb, Prio: minPrio - 1, seq: p.seq})
			p.seq++
		}
	}
}

// TestReconcileMatchesMapReference drives two peers through the same random
// churn — neighbors leaving, joining, the list reshuffled or untouched, probe
// cycles in between moving priorities — one through Reconcile and one through
// the map-based reference, each given the list ascending, and requires the
// same queue throughout: each neighbor's Prio and arrival seq, and the same
// first hops. Reconcile's queue is in neighbor order, the reference's in
// arrival order.
func TestReconcileMatchesMapReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		cfg := DefaultConfig(PROPG)
		cfg.MaxInitTrials = 3
		nbrs := r.Perm(40)[:1+r.Intn(12)]
		slices.Sort(nbrs) // Init, like Reconcile, takes the list ascending
		var got, want Peer
		got.Init(nbrs, rng.New(seed+1))
		want.Init(nbrs, rng.New(seed+1))
		for step := 0; step < 60; step++ {
			switch r.Intn(5) {
			case 0: // a neighbor leaves
				if len(nbrs) > 0 {
					i := r.Intn(len(nbrs))
					nbrs = append(nbrs[:i], nbrs[i+1:]...)
				}
			case 1: // up to three join, anywhere in the list
				for k := r.Intn(3) + 1; k > 0; k-- {
					if x := r.Intn(40); !slices.Contains(nbrs, x) {
						i := r.Intn(len(nbrs) + 1)
						nbrs = append(nbrs[:i], append([]int{x}, nbrs[i:]...)...)
					}
				}
			case 2: // same set, new listing order
				r.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
			case 3: // wholesale replacement
				nbrs = r.Perm(40)[:r.Intn(12)]
			} // case 4: unchanged neighborhood
			listed := slices.Clone(nbrs)
			slices.Sort(listed)
			got.Reconcile(listed)
			referenceReconcile(&want, listed)
			if len(got.Queue) != len(want.Queue) || got.seq != want.seq || !sortedByNeighbor(got.Queue) {
				return false
			}
			byNeighbor := slices.Clone(want.Queue)
			slices.SortFunc(byNeighbor, func(a, b QueueEntry) int { return a.Neighbor - b.Neighbor })
			if !slices.Equal(got.Queue, byNeighbor) || !slices.Equal(hopOrder(&got), hopOrder(&want)) {
				return false
			}
			// A probe cycle between reconciliations, so priorities spread.
			success := r.Intn(2) == 0
			a, aok := got.FirstHop()
			b, bok := want.FirstHop()
			if a != b || aok != bok || got.Finish(success, cfg) != want.Finish(success, cfg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFinishStandingAndTimer tables the §3.2 maintenance rule: warm-up
// rotates the first hop and pins the timer; afterwards success promotes and
// resets, failure demotes and doubles, and the timer resets once it passes
// the MAX_TIMER cap.
func TestFinishStandingAndTimer(t *testing.T) {
	cfg := DefaultConfig(PROPG)
	cfg.InitTimerMS = 100
	cfg.MaxInitTrials = 2
	st := &Peer{TimerMS: cfg.InitTimerMS}
	st.Init([]int{10, 20, 30}, rng.New(4))
	order := hopOrder(st)

	steps := []struct {
		success   bool
		wantHop   int     // index into order of the expected first hop
		wantTimer float64 // after Finish
	}{
		{true, 0, 100},  // warm-up: rotates to the tail even on success
		{false, 1, 100}, // warm-up: timer pinned even on failure
		{false, 2, 200}, // maintenance: failure demotes, timer doubles
		{false, 0, 400},
		{false, 1, 800},
		{false, 2, 1600},
		{false, 0, 3200}, //   ... doubles to the cap, 32 × INIT_TIMER
		{false, 1, 100},  //   ... past the cap: reset
		{true, 2, 100},   // success promotes: same first hop next time
		{true, 2, 100},
		{false, 2, 200}, // and a failure sends it to the tail again
		{true, 0, 100},  // success resets a backed-off timer
	}
	for i, step := range steps {
		nb, ok := st.FirstHop()
		if !ok || nb != order[step.wantHop] {
			t.Fatalf("step %d: first hop %d, want %d (queue %v)", i, nb, order[step.wantHop], st.Queue)
		}
		if got := st.Finish(step.success, cfg); got != step.wantTimer || st.TimerMS != got {
			t.Fatalf("step %d: timer %v (state %v), want %v", i, got, st.TimerMS, step.wantTimer)
		}
	}
	if st.Trials != len(steps) {
		t.Fatalf("trials = %d, want %d", st.Trials, len(steps))
	}
}

// TestFinishAfterMidCycleReconcile: a live driver's failure detector may
// reconcile the queue while a cycle is open. Finish then ranks the first hop
// FirstHop chose, wherever the merge moved its entry, and ranks nothing when
// the hop left the queue meanwhile.
func TestFinishAfterMidCycleReconcile(t *testing.T) {
	cfg := DefaultConfig(PROPG)
	cfg.MaxInitTrials = 0 // past warm-up: a success promotes the hop
	st := &Peer{TimerMS: cfg.InitTimerMS}
	st.Init([]int{10, 20, 30}, rng.New(4))
	hop, _ := st.FirstHop()
	st.Reconcile([]int{5, 10, 20, 30}) // a fresh neighbor shifts every index
	prio := map[int]int32{}
	for _, qe := range st.Queue {
		prio[qe.Neighbor] = qe.Prio
	}
	st.Finish(true, cfg)
	for _, qe := range st.Queue {
		want := prio[qe.Neighbor]
		if qe.Neighbor == hop {
			want--
		}
		if qe.Prio != want {
			t.Fatalf("neighbor %d: priority %d after a successful cycle through %d, want %d", qe.Neighbor, qe.Prio, hop, want)
		}
	}

	hop, _ = st.FirstHop()
	before := slices.Clone(st.Queue)
	st.Reconcile(slices.DeleteFunc([]int{5, 10, 20, 30}, func(nb int) bool { return nb == hop }))
	kept := slices.Clone(st.Queue)
	st.Finish(false, cfg)
	if !slices.Equal(st.Queue, kept) || len(kept) != len(before)-1 {
		t.Fatalf("a cycle through departed neighbor %d ranked the queue %v → %v", hop, kept, st.Queue)
	}
}

func TestSelectTradeConstraints(t *testing.T) {
	// u=0 neighbors {2,3,4}; v=1 neighbors {4,5,6}; path = [0,3,1] so 3 is
	// banned for u; 4 is adjacent to both so banned both ways.
	o := tinyOverlay(t, []int{0, 100, 20, 30, 40, 50, 60})
	edges := [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 4}, {1, 5}, {1, 6}, {0, 1}}
	for _, e := range edges {
		if err := o.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	give, take := SelectTrade(o, 0, 1, []int{0, 3, 1}, 3, rng.New(3), new(overlay.Scratch))
	// Eligible for u: {2} (3 on path, 4 adjacent to v). For v: {5,6}
	// (4 adjacent to u). Equal sizes => m_eff = 1.
	if len(give) != 1 || len(take) != 1 {
		t.Fatalf("trade sizes: give=%v take=%v", give, take)
	}
	if give[0] != 2 {
		t.Fatalf("give = %v, want [2]", give)
	}
	if take[0] != 5 && take[0] != 6 {
		t.Fatalf("take = %v, want 5 or 6", take)
	}
	// With everything banned, no trade.
	give, take = SelectTrade(o, 0, 1, []int{0, 1, 2, 3, 4, 5, 6}, 3, rng.New(3), new(overlay.Scratch))
	if give != nil || take != nil {
		t.Fatalf("fully banned trade returned %v/%v", give, take)
	}
}

func TestMeasureHostsNoise(t *testing.T) {
	o := tinyOverlay(t, []int{0, 100})
	o.AddEdge(0, 1)
	cfg := DefaultConfig(PROPG)
	cfg.MeasurementNoise = 0.5
	p, err := New(o, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	varies := false
	sum := 0.0
	const draws = 2000
	// One before-leg, which no queue remembers, and its after-leg.
	sc := &overlay.Scratch{Pairs: [][2]int{{0, 100}, {100, 0}}, RTT: make([]float64, 2), Legs: [][2]int32{{0, 1}}}
	rtt := sc.RTT
	for i := 0; i < draws; i++ {
		if p.measurePairs(0, sc) != 2 {
			t.Fatal("measurement failed with no injector attached")
		}
		m := rtt[i%2]
		if m < 0 {
			t.Fatalf("negative measurement %v", m)
		}
		if m != 100 {
			varies = true
		}
		sum += m
	}
	if !varies {
		t.Fatal("noise configured but measurements constant")
	}
	if mean := sum / draws; math.Abs(mean-100) > 5 {
		t.Fatalf("noisy measurement mean %v far from truth 100", mean)
	}
	// Zero noise is exact.
	exact, err := New(o, DefaultConfig(PROPG), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if exact.measurePairs(0, sc); rtt[0] != 100 || rtt[1] != 100 {
		t.Fatalf("exact measurement = %v", rtt)
	}
}

func TestFindPartnerRandomProbeAvoidsSelf(t *testing.T) {
	o := tinyOverlay(t, []int{0, 10, 20})
	o.AddEdge(0, 1)
	o.AddEdge(1, 2)
	cfg := DefaultConfig(PROPG)
	cfg.RandomProbe = true
	cfg.NHops = 0
	p, err := New(o, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v, path, ok := p.findPartner(0, 1)
		if !ok {
			t.Fatal("random probe failed on live overlay")
		}
		if v == 0 {
			t.Fatal("random probe returned self")
		}
		if len(path) != 2 || path[0] != 0 || path[1] != v {
			t.Fatalf("random probe path = %v", path)
		}
	}
}

// TestRefusedWalkCountsNoMessages: with no injector attached there is no
// liveness eviction, so a crashed neighbor stays in the queue and RandomWalk
// refuses it as a first hop, returning no path. Such a probe sent nothing;
// it used to move the unsigned WalkMessages counter by −1.
func TestRefusedWalkCountsNoMessages(t *testing.T) {
	o := tinyOverlay(t, []int{0, 10, 20, 30})
	for u := 0; u < 4; u++ {
		o.AddEdge(u, (u+1)%4)
	}
	cfg := DefaultConfig(PROPG)
	cfg.NHops = 3
	p, err := New(o, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	p.Start(event.New())
	if err := o.CrashSlot(1); err != nil {
		t.Fatal(err)
	}
	p.CrashNode(1)
	for i := 0; i < 3; i++ {
		before := p.Counters
		if _, _, ok := p.findPartner(0, 1); ok {
			t.Fatal("walk through a crashed first hop succeeded")
		}
		if p.Counters.WalkMessages != before.WalkMessages {
			t.Fatalf("refused walk moved WalkMessages %d → %d", before.WalkMessages, p.Counters.WalkMessages)
		}
		if p.Counters.WalkFailures != before.WalkFailures+1 {
			t.Fatalf("refused walk not counted as a failure: %+v", p.Counters)
		}
	}
	// A walk that starts and then gets stuck still counts the hops it took:
	// 2→3→0, where 0's only onward neighbor is the corpse.
	before := p.Counters.WalkMessages
	if _, _, ok := p.findPartner(2, 3); ok {
		t.Fatal("3-hop walk on a 4-ring with a dead slot found a partner")
	}
	if got := p.Counters.WalkMessages - before; got != 2 {
		t.Fatalf("stuck walk counted %d messages, want 2", got)
	}
}

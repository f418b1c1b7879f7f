package overlay

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// ringOverlay builds a 5-slot ring on hosts 0..40 step 10.
func ringOverlay(t *testing.T) *Overlay {
	t.Helper()
	o := lineOverlay(t, []int{0, 10, 20, 30, 40})
	for u := 0; u < 5; u++ {
		if err := o.AddEdge(u, (u+1)%5); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func TestCrashSlotKeepsStaleEdges(t *testing.T) {
	o := ringOverlay(t)
	if err := o.CrashSlot(2); err != nil {
		t.Fatal(err)
	}
	if o.Alive(2) || !o.Crashed(2) {
		t.Fatalf("after crash: alive=%v crashed=%v", o.Alive(2), o.Crashed(2))
	}
	if o.HostOf(2) != -1 || o.SlotOfHost(20) != -1 {
		t.Fatal("crashed slot still holds its host")
	}
	if o.Degree(2) != 2 {
		t.Fatalf("crashed slot degree = %d, want stale edges kept", o.Degree(2))
	}
	// The auditor must tolerate the corpse while it is flagged crashed.
	if err := o.CheckInvariants(); err != nil {
		t.Fatalf("invariants reject flagged corpse: %v", err)
	}
	if got := o.CrashedSlots(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("CrashedSlots = %v", got)
	}
	if err := o.CrashSlot(2); err == nil {
		t.Fatal("double crash accepted")
	}
}

func TestEvictDeadNeighbors(t *testing.T) {
	o := ringOverlay(t)
	if err := o.CrashSlot(2); err != nil {
		t.Fatal(err)
	}
	if n := o.EvictDeadNeighbors(1); n != 1 {
		t.Fatalf("evicted %d edges from slot 1, want 1", n)
	}
	if o.Logical.HasEdge(1, 2) {
		t.Fatal("stale edge survived eviction")
	}
	if n := o.EvictDeadNeighbors(1); n != 0 {
		t.Fatalf("second eviction removed %d edges", n)
	}
	// The other survivor still holds its stale edge.
	if !o.Logical.HasEdge(2, 3) {
		t.Fatal("unrelated stale edge vanished")
	}
}

func TestPurgeCrashed(t *testing.T) {
	o := ringOverlay(t)
	if err := o.PurgeCrashed(2); err == nil {
		t.Fatal("purging a live slot accepted")
	}
	if err := o.CrashSlot(2); err != nil {
		t.Fatal(err)
	}
	if err := o.PurgeCrashed(2); err != nil {
		t.Fatal(err)
	}
	if o.Degree(2) != 0 || o.Crashed(2) {
		t.Fatalf("after purge: degree=%d crashed=%v", o.Degree(2), o.Crashed(2))
	}
	// Purged corpse is now held to the strict (graceful-leave) invariant.
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := o.PurgeCrashed(2); err == nil {
		t.Fatal("double purge accepted")
	}
}

func TestCheckInvariantsRejectsUnflaggedCorpseEdges(t *testing.T) {
	o := ringOverlay(t)
	if err := o.CrashSlot(2); err != nil {
		t.Fatal(err)
	}
	// Simulate a buggy repair path that clears the flag without purging.
	delete(o.crashed, 2)
	if err := o.CheckInvariants(); err == nil {
		t.Fatal("invariants accepted dead slot with edges and no crashed flag")
	}
}

func TestCrashSkippedByGainAndLatencySums(t *testing.T) {
	o := ringOverlay(t)
	wantSum := o.Dist(1, 0) // after crash of 2, slot 1's only live neighbor is 0
	if err := o.CrashSlot(2); err != nil {
		t.Fatal(err)
	}
	if got := o.NeighborLatencySum(1); got != wantSum {
		t.Fatalf("NeighborLatencySum(1) = %v, want %v", got, wantSum)
	}
	// A swap evaluation over slots adjacent to the corpse must not list its
	// host: 1 keeps neighbor 0 and 3 keeps 4, two pairs each.
	var sc Scratch
	o.SwapPairs(1, 3, &sc)
	if len(sc.Pairs) != 4 || len(sc.RTT) != 4 {
		t.Fatalf("listed %d pairs for %d RTTs, want 4 and 4: %v", len(sc.Pairs), len(sc.RTT), sc.Pairs)
	}
	for _, p := range sc.Pairs {
		if p[0] < 0 || p[1] < 0 {
			t.Fatalf("listed a pair against a released host: %v", sc.Pairs)
		}
	}
	// Walks must refuse to route through the corpse: from 1, the only
	// candidates after the first hop exclude slot 2.
	r := rng.New(7)
	for i := 0; i < 20; i++ {
		path, ok := o.RandomWalk(0, 1, 3, r, new(Scratch))
		if !ok {
			continue
		}
		for _, s := range path {
			if s == 2 {
				t.Fatalf("walk routed through crashed slot: %v", path)
			}
		}
	}
}

func TestCrashCloneIndependence(t *testing.T) {
	o := ringOverlay(t)
	if err := o.CrashSlot(2); err != nil {
		t.Fatal(err)
	}
	c := o.Clone()
	if !c.Crashed(2) {
		t.Fatal("clone lost crashed flag")
	}
	if err := c.PurgeCrashed(2); err != nil {
		t.Fatal(err)
	}
	if !o.Crashed(2) {
		t.Fatal("purging the clone cleared the original's flag")
	}
}

func TestExchangeRejectsCrashedNeighbor(t *testing.T) {
	o := ringOverlay(t)
	if err := o.CrashSlot(2); err != nil {
		t.Fatal(err)
	}
	// Slot 1 still lists 2 as a neighbor; trading it away must be refused.
	err := o.ExchangeNeighbors(1, 4, []int{2}, []int{3}, nil)
	if err == nil {
		t.Fatal("exchange involving a crashed neighbor accepted")
	}
	if o.Stats.ExchangesRejected != 1 {
		t.Fatalf("ExchangesRejected = %d, want 1", o.Stats.ExchangesRejected)
	}
}

// TestEvictDeadNeighborsSeveralCorpses: every stale edge of the node goes in
// one call, and a node without any keeps its edges.
func TestEvictDeadNeighborsSeveralCorpses(t *testing.T) {
	o := ringOverlay(t)
	o.AddEdge(1, 3)
	for _, s := range []int{0, 2} {
		if err := o.CrashSlot(s); err != nil {
			t.Fatal(err)
		}
	}
	if n := o.EvictDeadNeighbors(1); n != 2 {
		t.Fatalf("evicted %d edges from slot 1, want 2", n)
	}
	if got := o.Neighbors(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("slot 1 keeps %v, want [3]", got)
	}
}

// TestAliveSlotAtMatchesAliveSlots: through random joins, graceful leaves,
// crashes and clones, the cached alive index answers AliveSlots()[k] for
// every k — on the overlay and on its clone, which must not share the cache.
func TestAliveSlotAtMatchesAliveSlots(t *testing.T) {
	agree := func(o *Overlay) bool {
		want := o.AliveSlots()
		if len(want) != o.NumAlive() {
			return false
		}
		for k, s := range want {
			if o.AliveSlotAt(k) != s {
				return false
			}
		}
		return true
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(10)
		hosts := make([]int, n)
		for i := range hosts {
			hosts[i] = i
		}
		o, err := New(hosts, gridLat)
		if err != nil {
			return false
		}
		nextHost := n
		for step := 0; step < 80; step++ {
			switch op := r.Intn(8); {
			case op < 2:
				if _, err := o.AddSlot(nextHost); err != nil {
					return false
				}
				nextHost++
			case op < 5 && o.NumAlive() > 0:
				victim := o.AliveSlots()[r.Intn(o.NumAlive())]
				if op == 2 {
					err = o.RemoveSlot(victim)
				} else {
					err = o.CrashSlot(victim)
				}
				if err != nil {
					return false
				}
			case op == 5:
				c := o.Clone()
				if o.NumAlive() > 0 {
					if err := c.CrashSlot(c.AliveSlotAt(0)); err != nil {
						return false
					}
				}
				if !agree(c) {
					return false
				}
			} // otherwise: query again with nothing changed
			if !agree(o) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

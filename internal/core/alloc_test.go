//go:build !race

package core

// Allocation gates for the sequential driver's probe cycle. The race
// detector's instrumentation allocates behind the scenes, so exact pins only
// mean something without it.

import (
	"testing"

	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/rng"
)

// TestProbeCycleAllocatesNothing pins the O(degree) probe cycle: once the
// driver's scratch has grown to the local degree, one PROP-G cycle —
// liveness eviction, Reconcile, first hop, walk or random pick, delivery
// past the injector, Var evaluation, swap, Finish — allocates nothing. The
// evaluation's pair and RTT lists are part of that scratch: reused, not
// re-made; the node's timer re-arms its own queue item in place.
func TestProbeCycleAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name        string
		randomProbe bool
		crash       bool // leave an unpurged corpse: eviction scans, alive index off the identity path
	}{
		{name: "ttl-walk"},
		{name: "random-probe", randomProbe: true},
		{name: "ttl-walk-with-corpse", crash: true},
		{name: "random-probe-with-corpse", randomProbe: true, crash: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, r := scrambledLineOverlay(t, 200, 3)
			cfg := DefaultConfig(PROPG)
			cfg.InitTimerMS = 10
			cfg.RandomProbe = tc.randomProbe
			p, err := New(o, cfg, r)
			if err != nil {
				t.Fatal(err)
			}
			// No loss: a lost message schedules a retransmit closure, which is
			// not the steady state. Duplicates and jitter still run.
			p.AttachFaults(mustInjector(t, faults.Config{Seed: 9, DupProb: 0.05, JitterMS: 5}))
			e := event.New()
			p.Start(e)
			if tc.crash {
				victim := o.AliveSlotAt(7)
				if err := o.CrashSlot(victim); err != nil {
					t.Fatal(err)
				}
				p.CrashNode(victim)
			}
			e.RunUntil(2000) // warm-up: scratch and event heap reach their sizes
			before := p.Counters
			pairsCap, rttCap := cap(p.sc.Pairs), cap(p.sc.RTT)
			const cycles = 2000
			if got := testing.AllocsPerRun(cycles, func() { e.Step() }); got != 0 {
				t.Fatalf("%v allocations per probe cycle, want 0", got)
			}
			if pairsCap == 0 || cap(p.sc.Pairs) != pairsCap || cap(p.sc.RTT) != rttCap {
				t.Fatalf("pair/RTT buffers grew %d/%d → %d/%d after warm-up, want them reused",
					pairsCap, rttCap, cap(p.sc.Pairs), cap(p.sc.RTT))
			}
			if probes := p.Counters.Probes - before.Probes; probes < cycles {
				t.Fatalf("%d probes over %d steps: the steps were not probe cycles", probes, cycles)
			}
			if p.Counters.Exchanges == before.Exchanges || p.Counters.Rejected == before.Rejected {
				t.Fatalf("measured cycles did not cover both outcomes: %+v → %+v", before, p.Counters)
			}
			if tc.crash && p.Counters.Evictions == 0 {
				t.Fatal("corpse was never evicted: the eviction scan did not run")
			}
		})
	}
}

func TestReconcileUnchangedAllocatesNothing(t *testing.T) {
	nbrs := []int{3, 5, 8, 13, 21, 34}
	var p Peer
	p.Init(append([]int(nil), nbrs...), rng.New(1))
	want := append([]QueueEntry(nil), p.Queue...)
	if got := testing.AllocsPerRun(100, func() { p.Reconcile(nbrs) }); got != 0 {
		t.Fatalf("Reconcile on an unchanged neighborhood allocates %v times", got)
	}
	for i := range want {
		if p.Queue[i] != want[i] {
			t.Fatalf("no-op Reconcile changed the queue: %v → %v", want, p.Queue)
		}
	}
}

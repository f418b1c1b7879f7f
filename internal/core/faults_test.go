package core

import (
	"testing"

	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/rng"
)

func mustInjector(t *testing.T, cfg faults.Config) *faults.Injector {
	t.Helper()
	in, err := faults.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// runWithFaults runs one PROP instance for horizon ms and returns it.
func runWithFaults(t *testing.T, policy Policy, seed uint64, inj *faults.Injector, horizon event.Time) (*Protocol, float64) {
	t.Helper()
	o, r := scrambledLineOverlay(t, 40, seed)
	cfg := DefaultConfig(policy)
	cfg.InitTimerMS = 1000
	p, err := New(o, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachFaults(inj)
	before := o.MeanLinkLatency()
	e := event.New()
	p.Start(e)
	e.RunUntil(horizon)
	return p, before
}

func TestZeroInjectorMatchesFaultFree(t *testing.T) {
	// An attached all-zero injector must leave the protocol's behavior
	// unchanged: every message is delivered, no retransmit is scheduled, and
	// no extra randomness is consumed, so the final overlay is identical.
	for _, policy := range []Policy{PROPG, PROPO} {
		run := func(attach bool) (uint64, float64) {
			o, r := scrambledLineOverlay(t, 40, 11)
			cfg := DefaultConfig(policy)
			cfg.InitTimerMS = 1000
			p, err := New(o, cfg, r)
			if err != nil {
				t.Fatal(err)
			}
			if attach {
				p.AttachFaults(mustInjector(t, faults.Config{Seed: 1}))
			}
			e := event.New()
			p.Start(e)
			e.RunUntil(30000)
			return p.Counters.Exchanges, o.MeanLinkLatency()
		}
		exBare, latBare := run(false)
		exZero, latZero := run(true)
		if exBare != exZero || latBare != latZero {
			t.Errorf("%v: zero injector diverged: exchanges %d vs %d, latency %v vs %v",
				policy, exBare, exZero, latBare, latZero)
		}
	}
}

func TestLossTriggersRetriesAndStillConverges(t *testing.T) {
	for _, policy := range []Policy{PROPG, PROPO} {
		inj := mustInjector(t, faults.Config{Seed: 3, LossProb: 0.05})
		p, before := runWithFaults(t, policy, 17, inj, 60000)
		if p.Counters.Timeouts == 0 || p.Counters.Retries == 0 {
			t.Errorf("%v: no timeouts/retries under 5%% loss: %+v", policy, p.Counters)
		}
		if p.Counters.Exchanges == 0 {
			t.Errorf("%v: no exchanges executed under 5%% loss", policy)
		}
		after := p.O.MeanLinkLatency()
		if after >= before {
			t.Errorf("%v: no improvement under loss: %v -> %v", policy, before, after)
		}
		if err := p.O.CheckInvariants(); err != nil {
			t.Errorf("%v: invariants violated: %v", policy, err)
		}
	}
}

func TestJitterAndDupsAreAbsorbed(t *testing.T) {
	inj := mustInjector(t, faults.Config{Seed: 5, DupProb: 0.2, JitterMS: 5})
	p, _ := runWithFaults(t, PROPG, 23, inj, 60000)
	if p.Counters.DupsDropped == 0 {
		t.Fatalf("no duplicates dropped at 20%% dup rate: %+v", p.Counters)
	}
	if err := p.O.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
}

func TestCrashNodeAndLivenessEviction(t *testing.T) {
	o, r := scrambledLineOverlay(t, 30, 29)
	cfg := DefaultConfig(PROPG)
	cfg.InitTimerMS = 1000
	p, err := New(o, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachFaults(mustInjector(t, faults.Config{Seed: 1}))
	e := event.New()
	p.Start(e)
	e.RunUntil(5000)

	victim := o.AliveSlots()[0]
	if err := o.CrashSlot(victim); err != nil {
		t.Fatal(err)
	}
	p.CrashNode(victim)
	if registered(p) != 29 {
		t.Fatalf("Registered = %d after crash, want 29", registered(p))
	}

	// Survivors must notice on their own probes and drop stale references.
	e.RunUntil(20000)
	if p.Counters.Evictions == 0 {
		t.Fatalf("no liveness evictions after a crash: %+v", p.Counters)
	}
	if o.Degree(victim) != 0 {
		t.Fatalf("corpse still has %d stale edges after eviction rounds", o.Degree(victim))
	}
	// Fully evicted: purging formalizes the death and the strict invariant
	// holds again.
	if err := o.PurgeCrashed(victim); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStaleRetransmitTimersAreAbsorbed(t *testing.T) {
	// Total loss keeps every node inside a retransmit chain; an external
	// repair notification (NeighborsChanged) must invalidate those chains,
	// and the pending timers must be counted as stale, not restart cycles.
	o, r := scrambledLineOverlay(t, 20, 31)
	cfg := DefaultConfig(PROPG)
	cfg.InitTimerMS = 1000
	p, err := New(o, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachFaults(mustInjector(t, faults.Config{Seed: 7, LossProb: 1}))
	e := event.New()
	p.Start(e)
	e.RunUntil(1500) // every node has started its cycle; chains pending
	p.NeighborsChanged(e, o.AliveSlots()...)
	e.RunUntil(60000)
	if p.Counters.StaleTimers == 0 {
		t.Fatalf("no stale timers absorbed: %+v", p.Counters)
	}
	if p.Counters.Exchanges != 0 {
		t.Fatalf("exchanges executed under total loss: %+v", p.Counters)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTotalLossMeansNoExchangesButBoundedRetries(t *testing.T) {
	inj := mustInjector(t, faults.Config{Seed: 13, LossProb: 1})
	p, before := runWithFaults(t, PROPO, 37, inj, 60000)
	if p.Counters.Exchanges != 0 {
		t.Fatalf("exchanges executed with every message lost: %+v", p.Counters)
	}
	if got := p.O.MeanLinkLatency(); got != before {
		t.Fatalf("overlay changed under total loss: %v -> %v", before, got)
	}
	// Retries stay bounded: per timeout at most one retransmission, and per
	// probe attempt chain at most maxRetries retransmissions.
	if p.Counters.Retries > p.Counters.Timeouts {
		t.Fatalf("more retries than timeouts: %+v", p.Counters)
	}
	if p.Counters.Timeouts == 0 {
		t.Fatal("no timeouts under total loss")
	}
}

func TestPartitionStallsThenRecovers(t *testing.T) {
	// Hosts are line positions; isolate those of half the slots during a
	// window and verify exchanges across the cut resume afterwards.
	o, r := scrambledLineOverlay(t, 30, 41)
	isolated := map[int]bool{}
	for i, s := range o.AliveSlots() {
		if i%2 == 0 {
			isolated[o.HostOf(s)] = true
		}
	}
	cfg := DefaultConfig(PROPG)
	cfg.InitTimerMS = 1000
	p, err := New(o, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachFaults(mustInjector(t, faults.Config{
		Seed:             1,
		PartitionStartMS: 0,
		PartitionStopMS:  20000,
		Isolated:         isolated,
	}))
	e := event.New()
	p.Start(e)
	e.RunUntil(20000)
	duringTimeouts := p.Counters.Timeouts
	if duringTimeouts == 0 {
		t.Fatal("no timeouts during the partition window")
	}
	e.RunUntil(80000)
	if p.Counters.Exchanges == 0 {
		t.Fatal("no exchanges after the partition healed")
	}
	if err := p.O.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRetransmitDelayGrowsExponentially(t *testing.T) {
	o, _ := scrambledLineOverlay(t, 10, 1)
	p, err := New(o, DefaultConfig(PROPG), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// The jittered delay lands in [base, base*(1+j)), and base doubles.
	prev := event.Time(0)
	for attempt := 0; attempt < 4; attempt++ {
		base := event.Time(probeTimeoutMS * float64(uint64(1)<<uint(attempt)))
		d := p.retransmitDelay(attempt)
		if d < base || d >= event.Time(float64(base)*(1+backoffJitter)) {
			t.Fatalf("retransmitDelay(%d) = %v outside [%v, %v)", attempt, d, base, float64(base)*(1+backoffJitter))
		}
		if d <= prev {
			t.Fatalf("delay not growing: %v then %v", prev, d)
		}
		prev = d
	}
}

// TestVersionsCountExchanges holds the swap transaction's conservation law
// under loss and duplication with no crash-stop: every executed exchange
// bumps exactly two versions — the partner's accepted Prepare and the
// prober's Acked — so Σ Version = 2 × Exchanges. At DupProb 1 every
// proposal arrives twice, so each executed exchange had its second copy
// refused: a guard that took it would bump the partner once more.
func TestVersionsCountExchanges(t *testing.T) {
	for _, dup := range []float64{0.1, 1} {
		for _, policy := range []Policy{PROPG, PROPO} {
			inj := mustInjector(t, faults.Config{Seed: 5, LossProb: 0.1, DupProb: dup})
			p, _ := runWithFaults(t, policy, 19, inj, 60000)
			var sum uint64
			for _, st := range p.nodes {
				if st != nil {
					sum += uint64(st.Version())
				}
			}
			if ex := p.Counters.Exchanges; ex == 0 || sum != 2*ex {
				t.Errorf("%v dup %v: Σ version %d, want 2 × %d exchanges", policy, dup, sum, ex)
			}
		}
	}
}

// TestProposalLeg drives Protocol's Commit step past two injectors. A
// proposal lost on every attempt is resent maxRetries times, then ends
// Refused with the overlay and both versions untouched, one timeout more
// than it resent. A duplicated one executes exactly one swap: one more
// version each side.
func TestProposalLeg(t *testing.T) {
	for _, lost := range []bool{true, false} {
		m := pathWorld(t, PROPG, 0)
		p, err := New(m.o, m.cfg, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		p.Start(event.New())
		u, v := p.node(m.u), p.node(m.v)
		u.Fired(&p.round, p.O.Neighbors(m.u))
		ver := v.Version()
		u.Reached(&p.round, p.O, m.u, m.v, m.path)
		if step := u.Measured(&p.round, p.measurePairs(0, &p.sc)); step.Kind != Commit {
			t.Fatalf("lost %v: %+v, want a Commit step", lost, step)
		}
		fc, bumped := faults.Config{Seed: 1, DupProb: 1}, uint32(1)
		if lost {
			fc, bumped = faults.Config{Seed: 1, LossProb: 1}, 0
		}
		p.AttachFaults(mustInjector(t, fc))
		before, c, swaps := overlayState(p.O), p.Counters, p.O.Stats.Swaps
		step := u.Committed(&p.round, p.propose(0, m.u, ver, m.path))
		if u.Version() != bumped || v.Version() != ver+bumped {
			t.Errorf("lost %v: versions %d, %d, want each bumped by %d", lost, u.Version(), v.Version(), bumped)
		}
		if lost {
			timedOut := (p.Counters.Timeouts - p.Counters.Retries) - (c.Timeouts - c.Retries)
			resent := p.Counters.Retries - c.Retries
			if step.Reason != Refused || overlayState(p.O) != before || timedOut != 1 || resent != maxRetries {
				t.Errorf("lost: %+v, overlay changed %v, Timeouts−Retries +%d, %d resends; want Refused, unchanged, +1, %d",
					step, overlayState(p.O) != before, timedOut, resent, maxRetries)
			}
			continue
		}
		if step.Reason != Exchanged || p.O.Stats.Swaps != swaps+1 || p.O.HostOf(m.u) != 100 {
			t.Errorf("duplicated: %+v, %d swaps, slot %d holds host %d; want one swap, Exchanged",
				step, p.O.Stats.Swaps-swaps, m.u, p.O.HostOf(m.u))
		}
	}
}

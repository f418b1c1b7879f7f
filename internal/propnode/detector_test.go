package propnode

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/overlay"
)

// silentFail kills host's agent without telling the overlay: the endpoint
// and pump vanish, but the slot stays alive in the bijection — the silent
// failure only a heartbeat detector can notice (Crash marks the slot dead,
// so the probe path's EvictDeadNeighbors would see it).
func silentFail(t *testing.T, rt *Runtime, host int) {
	t.Helper()
	rt.mu.Lock()
	a := rt.agents[host]
	delete(rt.agents, host)
	rt.mu.Unlock()
	if a == nil {
		t.Fatalf("no agent for host %d", host)
	}
	close(a.stop)
	a.node.Close()
}

func degreeOf(rt *Runtime, slot int) int {
	var d int
	rt.View(func(o *overlay.Overlay) { d = o.Degree(slot) })
	return d
}

// TestDetectorEvictsSilentFailure pins the detection bound: a neighbor that
// stops answering while the overlay still believes it alive must lose every
// link through suspicion-threshold evictions, with no repair pass and no
// external nudge.
func TestDetectorEvictsSilentFailure(t *testing.T) {
	rt := startRuntime(t, 12, Config{
		Policy:              core.PROPG,
		Seed:                41,
		HeartbeatIntervalMS: 5,
		HeartbeatTimeout:    5 * time.Millisecond,
	}, nil)
	defer rt.Stop()

	const victim = 7
	var slot int
	rt.View(func(o *overlay.Overlay) { slot = o.SlotOfHost(victim) })
	if slot < 0 || degreeOf(rt, slot) == 0 {
		t.Fatalf("victim host %d has no live links to lose", victim)
	}
	silentFail(t, rt, victim)

	start := time.Now()
	if !waitFor(t, 10*time.Second, func() bool { return degreeOf(rt, slot) == 0 }) {
		t.Fatalf("victim slot %d still has %d links after 10s: %+v",
			slot, degreeOf(rt, slot), rt.Counters())
	}
	c := rt.Counters()
	if c.SuspectEvictions == 0 {
		t.Fatalf("links vanished without suspicion evictions: %+v", c)
	}
	if c.AutoRepairs != 0 {
		t.Fatalf("silent failure took the corpse-repair path (%d repairs) — the overlay never saw a crash", c.AutoRepairs)
	}
	t.Logf("silent failure fully evicted in %v (%d heartbeats, %d evictions)",
		time.Since(start), c.Heartbeats, c.SuspectEvictions)
}

// TestDetectorFaultFreeControl pins the no-false-positive half of the
// acceptance bar: on healthy links an aggressive detector sweeps constantly
// and never evicts anyone.
func TestDetectorFaultFreeControl(t *testing.T) {
	rt := startRuntime(t, 16, Config{
		Policy:              core.PROPG,
		Seed:                42,
		HeartbeatIntervalMS: 5,
	}, nil)

	waitFor(t, 5*time.Second, func() bool {
		c := rt.Counters()
		return c.Heartbeats >= 200 && c.Exchanges >= 1
	})
	rt.Stop()
	c := rt.Counters()
	if c.Heartbeats < 200 {
		t.Fatalf("detector barely ran: %+v", c)
	}
	if c.SuspectEvictions != 0 || c.AutoRepairs != 0 {
		t.Fatalf("fault-free run evicted healthy neighbors: %+v", c)
	}
	if err := rt.Overlay().CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants: %v", err)
	}
}

// TestDetectorRepairsCrashWithoutExplicitRepair: after a crash-stop, the
// detector's corpse path must run membership repair on its own — no
// Repair call from the driver.
func TestDetectorRepairsCrashWithoutExplicitRepair(t *testing.T) {
	rt := startRuntime(t, 12, Config{
		Policy:              core.PROPG,
		Seed:                43,
		HeartbeatIntervalMS: 5,
	}, nil)
	defer rt.Stop()

	var victim int
	rt.View(func(o *overlay.Overlay) { victim = o.HostOf(o.AliveSlots()[0]) })
	if err := rt.Crash(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}
	ok := waitFor(t, 10*time.Second, func() bool {
		var unpurged int
		rt.View(func(o *overlay.Overlay) { unpurged = len(o.CrashedSlots()) })
		return unpurged == 0 && rt.Counters().AutoRepairs >= 1
	})
	if !ok {
		t.Fatalf("corpse never auto-repaired: %+v", rt.Counters())
	}
	rt.View(func(o *overlay.Overlay) {
		if err := o.CheckInvariants(); err != nil {
			t.Errorf("invariants after auto-repair: %v", err)
		}
		if !o.Connected() {
			t.Error("overlay disconnected after auto-repair")
		}
	})
}

// TestProbeEvictionRepairsCorpse pins the bugfix: a probe that evicts an
// edge to a crashed neighbor purges the corpse. Only a detector sweep that
// still saw an edge to one used to repair, and here no sweep fires: once
// the survivors' probes had evicted every edge to it, the corpse stayed
// unpurged for good. The agents' own probe loops drive the probes — a test
// driving probeOnce would race the probe loop over the kick the repair sends.
func TestProbeEvictionRepairsCorpse(t *testing.T) {
	rt := startRuntime(t, 12, Config{Policy: core.PROPG, Seed: 43, HeartbeatIntervalMS: 3.6e6}, nil)
	defer rt.Stop()

	var victim int
	rt.View(func(o *overlay.Overlay) { victim = o.HostOf(o.AliveSlots()[0]) })
	if err := rt.Crash(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}
	ok := waitFor(t, 5*time.Second, func() bool {
		var unpurged int
		rt.View(func(o *overlay.Overlay) { unpurged = len(o.CrashedSlots()) })
		return unpurged == 0
	})
	c := rt.Counters()
	if !ok || c.AutoRepairs != 1 || c.Heartbeats != 0 {
		t.Fatalf("corpse purged %v, counters %+v; want one probe-triggered repair and no heartbeat", ok, c)
	}
	rt.View(func(o *overlay.Overlay) {
		if err := o.CheckInvariants(); err != nil {
			t.Errorf("invariants after repair: %v", err)
		}
		if !o.Connected() {
			t.Error("overlay disconnected after repair")
		}
	})
}

// TestRecoverRejoin drives the full lifecycle: crash a host, let the
// detector repair around the corpse, then Join the host again — same
// identity, next incarnation — and verify it rejoins the membership and the
// audit passes at quiesce.
func TestRecoverRejoin(t *testing.T) {
	rt := startRuntime(t, 12, Config{
		Policy:              core.PROPG,
		Seed:                44,
		HeartbeatIntervalMS: 5,
	}, nil)

	var victim, victimHost int
	rt.View(func(o *overlay.Overlay) {
		victim = o.AliveSlots()[3]
		victimHost = o.HostOf(victim)
	})
	if err := rt.Crash(victimHost); err != nil {
		t.Fatalf("crash: %v", err)
	}
	// Rejoining before anyone repaired the corpse must also work (AddSlot
	// hands out a fresh slot; the corpse is repaired independently) — but
	// exercise the common order: detector repairs first.
	waitFor(t, 10*time.Second, func() bool {
		var unpurged int
		rt.View(func(o *overlay.Overlay) { unpurged = len(o.CrashedSlots()) })
		return unpurged == 0
	})

	if _, err := rt.Join(0); err == nil {
		t.Fatal("join of a live host must fail")
	}
	slot, err := rt.Join(victimHost)
	if err != nil {
		t.Fatalf("join(%d): %v", victimHost, err)
	}
	rt.mu.Lock()
	a := rt.agents[victimHost]
	inc := rt.incarnation[victimHost]
	rt.mu.Unlock()
	if a == nil {
		t.Fatal("rejoined host has no agent")
	}
	if inc < 2 || a.epoch != inc {
		t.Fatalf("rejoined agent should run at incarnation ≥2, got epoch %d (incarnation %d)", a.epoch, inc)
	}
	if slot == victim {
		t.Fatalf("rejoined host reclaimed its dead slot %d", slot)
	}
	if got := degreeOf(rt, slot); got == 0 {
		t.Fatal("rejoined agent has no links")
	}
	if c := rt.Counters().Recovers; c != 1 {
		t.Fatalf("Recovers = %d, want 1", c)
	}

	// The rejoined agent must participate: probes fire, membership stays
	// sound at quiesce.
	probes := rt.Counters().Probes
	waitFor(t, 5*time.Second, func() bool { return rt.Counters().Probes > probes+10 })
	rt.Stop()

	o := rt.Overlay()
	au := audit.New(1, 16)
	au.Register(audit.OverlayBijection(o), audit.OverlayConnected(o))
	au.CheckNow()
	if err := au.Err(); err != nil {
		t.Fatalf("audit at quiesce (%s): %v", au.Summary(), err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants at quiesce: %v", err)
	}
}

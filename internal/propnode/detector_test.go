package propnode

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/transport"
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

// record reads host's entry in a's detector table: ok is false when the
// table holds none, and the RTT is negative when the last heartbeat missed.
func record(a *agent, host int) (n nbr, ok bool) {
	a.nbrMu.Lock()
	defer a.nbrMu.Unlock()
	if i := a.find(host); i >= 0 {
		return a.nbrs[i], true
	}
	return nbr{}, false
}

// silentTimeout is the deadline for tests that make a host silent: a ping to
// it and its three retransmits give up in well under a second.
const silentTimeout = 40 * time.Millisecond

// TestCachedRTTChangesNoDecision: a neighbor RTT read from the detector's
// table is the RTT a ping would measure, so a warm evaluation decides what a
// cold one does. On the fault-free loopback the same swap's pairs measure
// bit-equal either way, with fewer pings warm. And a cached RTT never hides
// a silent neighbor: after one missed sweep its record holds no RTT, so the
// next evaluation pings it and ends Poisoned, as without the table.
func TestCachedRTTChangesNoDecision(t *testing.T) {
	t.Run("bit-equal", func(t *testing.T) {
		rt := quietRuntime(t, 16, core.PROPG, transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf}), time.Second)
		defer rt.Stop()
		u, path := twoHopPartner(t, rt, core.PROPG)
		rt.mu.Lock()
		a, b := rt.agents[rt.o.HostOf(u)], rt.agents[rt.o.HostOf(path[2])]
		rt.o.SwapPairs(u, path[2], &a.sc)
		rt.mu.Unlock()
		pings := func() uint64 { return a.node.Stats().PingsSent + b.node.Stats().PingsSent }

		p0 := pings()
		if got := rt.measure(a); got != len(a.sc.Pairs) {
			t.Fatalf("cold: measured %d of %d pairs", got, len(a.sc.Pairs))
		}
		cold, coldPings := slices.Clone(a.sc.RTT), pings()-p0
		sweepAll(rt)
		p1 := pings()
		if got := rt.measure(a); got != len(a.sc.Pairs) {
			t.Fatalf("warm: measured %d of %d pairs", got, len(a.sc.Pairs))
		}
		if warmPings := pings() - p1; warmPings >= coldPings {
			t.Fatalf("warm evaluation sent %d pings, cold %d: the table was not read", warmPings, coldPings)
		}
		for k, pr := range a.sc.Pairs {
			if math.Float64bits(a.sc.RTT[k]) != math.Float64bits(cold[k]) {
				t.Errorf("pair %v: warm RTT %v, cold %v", pr, a.sc.RTT[k], cold[k])
			}
		}
	})
	t.Run("silent neighbor", func(t *testing.T) {
		net := &hookNet{Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf})}
		rt := quietRuntime(t, 16, core.PROPG, net, silentTimeout)
		defer rt.Stop()
		u, path := twoHopPartner(t, rt, core.PROPG)
		rt.mu.Lock()
		hostU, hostV := rt.o.HostOf(u), rt.o.HostOf(path[2])
		a := rt.agents[hostU]
		silent := -1
		for _, s := range rt.o.Neighbors(u) {
			if h := rt.o.HostOf(s); h != hostV {
				silent = h
				break
			}
		}
		rt.mu.Unlock()

		sweepAll(rt)
		if n, ok := record(a, silent); !ok || n.rtt != ClusterLat(hostU, silent) || n.level != 0 {
			t.Fatalf("after an answered sweep, neighbor %d's record is %+v (present %v)", silent, n, ok)
		}
		net.silent.Store(int64(silent) + 1)
		rt.heartbeatOnce(a)
		if n, ok := record(a, silent); !ok || n.rtt >= 0 || n.level != 1 {
			t.Fatalf("after one missed sweep, neighbor %d's record is %+v (present %v); want no RTT, suspicion 1", silent, n, ok)
		}
		rt.mu.Lock()
		a.cyc.Fired(&a.round, rt.o.Neighbors(u))
		rt.mu.Unlock()
		end := rt.evaluate(a, u, path)
		rt.ended(end)
		if c := rt.Counters(); end.Reason != core.Poisoned || c.MeasureFailures != 1 || c.Exchanges != 0 {
			t.Fatalf("an evaluation over silent neighbor %d ended %v, counters %+v; want Poisoned", silent, end.Reason, c)
		}
	})
}

// TestNeighborTableLifetime walks one record through its life — no entry
// before a sweep, an RTT after a pong, none after a miss, the RTT back after
// the next pong, and no entry once the host leaves the neighbor set through
// an exchange or a suspicion eviction — while readers measure through the
// table concurrently: one runs measure and two answer TMeasure lists. Every
// RTT a reader gets must be the ground truth. Run it under
// go test -race -count=10 -run TestNeighborTableLifetime.
func TestNeighborTableLifetime(t *testing.T) {
	net := &hookNet{Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf})}
	rt := quietRuntime(t, 16, core.PROPG, net, silentTimeout)
	defer rt.Stop()
	rt.mu.Lock()
	a := rt.agents[0]
	u := rt.o.SlotOfHost(0)
	var nbrs, others []int // hosts
	for h := 1; h < 16; h++ {
		if rt.o.Logical.HasEdge(u, rt.o.SlotOfHost(h)) {
			nbrs = append(nbrs, h)
		} else {
			others = append(others, h)
		}
	}
	rt.mu.Unlock()
	if len(nbrs) < 2 || len(others) == 0 {
		t.Fatalf("host 0 has neighbors %v and non-neighbors %v", nbrs, others)
	}
	for _, h := range nbrs {
		if _, ok := record(a, h); ok {
			t.Fatalf("neighbor %d has a record before any sweep", h)
		}
	}

	// The readers: every host but 0, as one list.
	all := append(slices.Clone(nbrs), others...)
	var body []byte
	for _, h := range all {
		body = binary.BigEndian.AppendUint64(body, uint64(h))
	}
	replies, err := net.Loopback.Open(99)
	if err != nil {
		t.Fatal(err)
	}
	defer replies.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // the prober's side
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.sc.Pairs, a.sc.RTT = a.sc.Pairs[:0], a.sc.RTT[:0]
			for _, h := range all {
				a.sc.Pairs, a.sc.RTT = append(a.sc.Pairs, [2]int{0, h}), append(a.sc.RTT, -1)
			}
			got := rt.measure(a)
			for k, pr := range a.sc.Pairs[:got] {
				if a.sc.RTT[k] != ClusterLat(0, pr[1]) {
					t.Errorf("measure: host %d at %v, want %v", pr[1], a.sc.RTT[k], ClusterLat(0, pr[1]))
				}
			}
		}
	}()
	for r := 0; r < 2; r++ { // the partner's side
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt.handleMeasure(a, transport.Message{Type: transport.TMeasure, Src: 99, Body: body})
			}
		}()
	}
	go func() { // the relays' replies
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case in := <-replies.Recv():
				for k, h := range all[:len(in.Msg.Body)/8] {
					if got := math.Float64frombits(binary.BigEndian.Uint64(in.Msg.Body[8*k:])); got != ClusterLat(0, h) {
						t.Errorf("handleMeasure: host %d at %v, want %v", h, got, ClusterLat(0, h))
					}
				}
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	answered := func(h int) {
		t.Helper()
		if n, ok := record(a, h); !ok || n.rtt != ClusterLat(0, h) || n.level != 0 {
			t.Fatalf("answered neighbor %d's record is %+v (present %v)", h, n, ok)
		}
	}
	rt.heartbeatOnce(a)
	for _, h := range nbrs {
		answered(h)
	}

	// A miss drops the RTT and keeps the suspicion; the next pong clears both.
	quiet := nbrs[0]
	net.silent.Store(int64(quiet) + 1)
	rt.heartbeatOnce(a)
	if n, ok := record(a, quiet); !ok || n.rtt >= 0 || n.level != 1 {
		t.Fatalf("missed neighbor %d's record is %+v (present %v); want no RTT, suspicion 1", quiet, n, ok)
	}
	answered(nbrs[1])
	net.silent.Store(0)
	rt.heartbeatOnce(a)
	answered(quiet)

	// An exchange moves a neighbor's host out and a stranger's in.
	moved, stranger := nbrs[1], others[0]
	rt.mu.Lock()
	err = rt.o.SwapHosts(rt.o.SlotOfHost(moved), rt.o.SlotOfHost(stranger))
	rt.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	rt.heartbeatOnce(a)
	if n, ok := record(a, moved); ok {
		t.Fatalf("host %d swapped out of the neighbor set keeps record %+v", moved, n)
	}
	answered(stranger)

	// suspicionThreshold misses evict the link, and the next sweep drops the
	// record.
	net.silent.Store(int64(quiet) + 1)
	evicts := rt.Counters().SuspectEvictions
	for i := 0; i < suspicionThreshold; i++ {
		rt.heartbeatOnce(a)
	}
	net.silent.Store(0)
	rt.heartbeatOnce(a)
	rt.mu.Lock()
	still := rt.o.Logical.HasEdge(u, rt.o.SlotOfHost(quiet))
	rt.mu.Unlock()
	if got := rt.Counters().SuspectEvictions - evicts; got != 1 || still {
		t.Fatalf("%d evictions, link to %d kept: %v; want the one link evicted", got, quiet, still)
	}
	if n, ok := record(a, quiet); ok {
		t.Fatalf("evicted host %d keeps record %+v", quiet, n)
	}
}

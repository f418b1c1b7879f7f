package propnode

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/transport"
)

// silentFail kills host's agent without telling the overlay: the endpoint
// and node vanish, but the slot stays alive in the bijection — the silent
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
// link through heartbeat evictions, with no repair pass and no external
// nudge.
func TestDetectorEvictsSilentFailure(t *testing.T) {
	rt := startRuntime(t, 12, Config{
		Policy:              core.PROPG,
		Seed:                41,
		HeartbeatIntervalMS: 5,
		PingTimeout:         5 * time.Millisecond,
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
		t.Fatalf("links vanished without heartbeat evictions: %+v", c)
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

// remembered reads the RTT a's neighborQ remembers to host, as rtt does.
func remembered(a *agent, host int) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cyc.Recall(host)
}

// linked reports whether a's slot has a link to host's.
func linked(rt *Runtime, a *agent, host int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.o.Logical.HasEdge(rt.o.SlotOfHost(a.host), rt.o.SlotOfHost(host))
}

// silentTimeout is the deadline for tests that make a host silent: a ping to
// it and its three retransmits give up in well under a second.
const silentTimeout = 40 * time.Millisecond

// TestCachedRTTChangesNoDecision: a neighbor RTT read from the neighborQ is
// the RTT a ping would measure, so a warm evaluation decides what a cold one
// does. On the fault-free loopback the same swap's pairs measure bit-equal
// either way, with fewer pings warm. And a remembered RTT never hides a
// silent neighbor: one unanswered heartbeat makes its entry cold, so the
// swap's pairs, measured again, stop at or before the silent host's — a
// Poisoned evaluation, as without the memory.
func TestCachedRTTChangesNoDecision(t *testing.T) {
	t.Run("bit-equal", func(t *testing.T) {
		var sent atomic.Uint64
		net := &hookNet{
			Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf}),
			onSend:   countPings(&sent),
		}
		rt := quietRuntime(t, 16, core.PROPG, net, time.Second)
		defer rt.Stop()
		u, path := twoHopPartner(t, rt, core.PROPG)
		rt.mu.Lock()
		a := rt.agents[rt.o.HostOf(u)]
		rt.o.SwapPairs(u, path[2], &a.sc)
		rt.mu.Unlock()
		pings := sent.Load

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
			t.Fatalf("warm evaluation sent %d pings, cold %d: the neighborQ was not read", warmPings, coldPings)
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
		rt.o.SwapPairs(u, path[2], &a.sc)
		rt.mu.Unlock()
		first := slices.Index(a.sc.Pairs, [2]int{hostU, silent})
		if first < 0 {
			t.Fatalf("the swap lists no pair from host %d to its neighbor %d", hostU, silent)
		}

		sweepAll(rt)
		if rtt, ok := remembered(a, silent); !ok || rtt != ClusterLat(hostU, silent) {
			t.Fatalf("after an answered sweep, neighbor %d's RTT is %v (remembered %v)", silent, rtt, ok)
		}
		net.silent.Store(int64(silent) + 1)
		rt.heartbeatOnce(a, nil)
		if rtt, ok := remembered(a, silent); ok {
			t.Fatalf("after an unanswered heartbeat, neighbor %d's RTT %v is still remembered", silent, rtt)
		}
		got := rt.measure(a)
		var ev core.Evaluation
		if why, _ := ev.Judge(a.sc.RTT, got, math.Inf(-1)); got > first || why != core.Poisoned {
			t.Fatalf("measured %d pairs past silent host %d's pair %d, judged %v; want Poisoned", got, silent, first, why)
		}
	})
}

// TestHeartbeatLadder pins that one heartbeat is the suspicion ladder: its
// transmissions wait PingTimeout × 1, 2 and 4. A neighbor that answers only
// the k-th keeps its link, and its entry that RTT, for k = 1, 2, 3; one that
// answers none loses the link, and its RTT, within the sweep that sent them,
// once all three deadlines — PingTimeout × 7 — have passed.
func TestHeartbeatLadder(t *testing.T) {
	const timeout = 20 * time.Millisecond
	for k := 0; k <= 3; k++ { // the transmission answered; 0 is none
		net := &hookNet{Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf})}
		rt := quietRuntime(t, 16, core.PROPG, net, timeout)
		rt.mu.Lock()
		a := rt.agents[0]
		nb := rt.o.HostOf(rt.o.Neighbors(rt.o.SlotOfHost(0))[0])
		rt.mu.Unlock()
		var sent atomic.Int32
		net.drop = func(from, to int, m transport.Message) bool {
			return from == 0 && to == nb && m.Type == transport.TPing && sent.Add(1) != int32(k)
		}
		evicts := rt.Counters().SuspectEvictions
		start := time.Now()
		rt.heartbeatOnce(a, nil)
		took := time.Since(start)
		rtt, ok := remembered(a, nb)
		kept := linked(rt, a, nb)
		rt.Stop()
		evicted := rt.Counters().SuspectEvictions - evicts

		waited, want := timeout*(1<<max(k-1, 0)-1), int32(k) // the deadlines before the answer
		if k == 0 {
			waited, want = 7*timeout, heartbeatRetries+1
		}
		switch {
		case sent.Load() != want:
			t.Errorf("k=%d: %d transmissions, want %d", k, sent.Load(), want)
		case took < waited || (k == 0 && took > waited+time.Second):
			t.Errorf("k=%d: the sweep took %v, want %v at least (and about that without an answer)", k, took, waited)
		case k > 0 && (!kept || evicted != 0 || !ok || rtt != ClusterLat(0, nb)):
			t.Errorf("k=%d: link kept %v, %d evictions, RTT %v (remembered %v); want the link and RTT %v",
				k, kept, evicted, rtt, ok, ClusterLat(0, nb))
		case k == 0 && (kept || evicted != 1 || ok):
			t.Errorf("no answer: link kept %v, %d evictions, RTT %v (remembered %v); want the link evicted and no RTT",
				kept, evicted, rtt, ok)
		}
	}
}

// TestNeighborTableLifetime walks the RTT one neighborQ entry remembers
// through its life — none before a sweep, the heartbeat's after one, none
// for a host an exchange moved out of the slot and the new host's after the
// next sweep, and none once an unanswered heartbeat evicted the link — while
// readers measure through the queue concurrently: one runs measure and two
// answer TMeasure lists. Every RTT a reader gets must be the ground truth.
// Run it under go test -race -count=10 -run TestNeighborTableLifetime.
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
		if rtt, ok := remembered(a, h); ok {
			t.Fatalf("neighbor %d has RTT %v remembered before any sweep", h, rtt)
		}
	}
	// The readers: every host but 0, as one list.
	all := append(slices.Clone(nbrs), others...)
	var body []byte
	for _, h := range all {
		body = binary.BigEndian.AppendUint64(body, uint64(h))
	}
	ep, err := net.Loopback.Open(99)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	replies := inbox(ep)
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
			case in := <-replies:
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
		if rtt, ok := remembered(a, h); !ok || rtt != ClusterLat(0, h) {
			t.Fatalf("answered neighbor %d's RTT is %v (remembered %v), want %v", h, rtt, ok, ClusterLat(0, h))
		}
	}
	rt.heartbeatOnce(a, nil)
	for _, h := range nbrs {
		answered(h)
	}

	// An exchange moves a neighbor's host out and a stranger's in.
	moved, stranger := nbrs[1], others[0]
	rt.mu.Lock()
	err = rt.o.SwapHosts(rt.o.SlotOfHost(moved), rt.o.SlotOfHost(stranger))
	rt.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	rt.heartbeatOnce(a, nil)
	if rtt, ok := remembered(a, moved); ok {
		t.Fatalf("host %d swapped out of the neighbor set keeps RTT %v", moved, rtt)
	}
	answered(stranger)

	// An unanswered heartbeat evicts the link and forgets the RTT.
	quiet := nbrs[0]
	net.silent.Store(int64(quiet) + 1)
	evicts := rt.Counters().SuspectEvictions
	rt.heartbeatOnce(a, nil)
	net.silent.Store(0)
	if got := rt.Counters().SuspectEvictions - evicts; got != 1 || linked(rt, a, quiet) {
		t.Fatalf("%d evictions, link to %d kept: %v; want the one link evicted", got, quiet, linked(rt, a, quiet))
	}
	if rtt, ok := remembered(a, quiet); ok {
		t.Fatalf("evicted host %d keeps RTT %v", quiet, rtt)
	}
}

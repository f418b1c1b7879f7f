package propnode

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/event"
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
	a.halt()
	a.node.Close()
}

func degreeOf(rt *Runtime, slot int) int {
	var d int
	rt.View(func(o *overlay.Overlay) { d = o.Degree(slot) })
	return d
}

// TestDetectorEvictsSilentFailure pins the detection bound on ten seeds: a
// neighbor that stops answering while the overlay still believes it alive
// must lose every link through heartbeat evictions, with no repair pass and
// no external nudge, within a second.
func TestDetectorEvictsSilentFailure(t *testing.T) {
	for seed := uint64(41); seed < 51; seed++ {
		rt, e := engineRuntime(t, 12, Config{Policy: core.PROPG, Seed: seed, HeartbeatIntervalMS: 5, PingTimeoutMS: 5}, nil)
		const victim = 7
		slot := rt.Overlay().SlotOfHost(victim)
		if slot < 0 || degreeOf(rt, slot) == 0 {
			t.Fatalf("seed %d: victim host %d has no live links to lose", seed, victim)
		}
		silentFail(t, rt, victim)
		if !until(e, 1000, func() bool { return degreeOf(rt, slot) == 0 }) {
			t.Fatalf("seed %d: victim slot %d still has %d links after 1s: %+v",
				seed, slot, degreeOf(rt, slot), rt.Counters())
		}
		rt.Stop()
		if c := rt.Counters(); c.SuspectEvictions == 0 || c.AutoRepairs != 0 {
			t.Fatalf("seed %d: links vanished with %d heartbeat evictions and %d corpse repairs, want evictions only — the overlay never saw a crash: %+v",
				seed, c.SuspectEvictions, c.AutoRepairs, c)
		}
	}
}

// TestSuspectOnSlotZeroIsEvicted: a neighbor that stops answering while
// alive on slot 0 — the smallest live slot, not a missing one — loses its
// link through the suspect path, not the corpse path, which would find no
// corpse to repair and evict nothing.
func TestSuspectOnSlotZeroIsEvicted(t *testing.T) {
	net := &hookNet{Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf})}
	rt := quietRuntime(t, 16, core.PROPG, net, silentMS, event.New())
	defer rt.Stop()
	o := rt.Overlay()
	suspect, a := o.HostOf(0), rt.agents[o.HostOf(o.Neighbors(0)[0])]
	net.silent.Store(int64(suspect) + 1)
	sweep(t, rt, a)
	if c := rt.Counters(); c.SuspectEvictions != 1 || c.AutoRepairs != 0 || linked(rt, a, suspect) {
		t.Fatalf("after an unanswered heartbeat to slot 0's host %d: linked %v, %d suspect evictions and %d repairs; want the link evicted once and no repair",
			suspect, linked(rt, a, suspect), c.SuspectEvictions, c.AutoRepairs)
	}
}

// TestDetectorFaultFreeControl pins the no-false-positive half of the
// acceptance bar on ten seeds: on healthy links an aggressive detector
// sweeps constantly and never evicts anyone.
func TestDetectorFaultFreeControl(t *testing.T) {
	for seed := uint64(42); seed < 52; seed++ {
		rt, e := engineRuntime(t, 16, Config{Policy: core.PROPG, Seed: seed, HeartbeatIntervalMS: 5}, nil)
		until(e, 1000, func() bool { c := rt.Counters(); return c.Heartbeats >= 200 && c.Exchanges >= 1 })
		rt.Stop()
		c := rt.Counters()
		if c.Heartbeats < 200 || c.SuspectEvictions != 0 || c.AutoRepairs != 0 {
			t.Fatalf("seed %d: want ≥ 200 heartbeats and no eviction on healthy links: %+v", seed, c)
		}
		if err := rt.Overlay().CheckInvariants(); err != nil {
			t.Fatalf("seed %d: overlay invariants: %v", seed, err)
		}
	}
}

// TestDetectorRepairsCrashWithoutExplicitRepair: after a crash-stop, the
// detector's corpse path must run membership repair on its own — no
// Repair call from the driver.
func TestDetectorRepairsCrashWithoutExplicitRepair(t *testing.T) {
	for seed := uint64(43); seed < 53; seed++ {
		crashRepairs(t, Config{Policy: core.PROPG, Seed: seed, HeartbeatIntervalMS: 5}, func(c Counters) bool { return c.AutoRepairs >= 1 })
	}
}

// TestProbeEvictionRepairsCorpse pins the bugfix: a probe that evicts an
// edge to a crashed neighbor purges the corpse. Only a detector sweep that
// still saw an edge to one used to repair, and here no sweep fires: once
// the survivors' probes had evicted every edge to it, the corpse stayed
// unpurged for good. The agents' own probe timers drive the probes.
func TestProbeEvictionRepairsCorpse(t *testing.T) {
	for seed := uint64(43); seed < 53; seed++ {
		crashRepairs(t, Config{Policy: core.PROPG, Seed: seed, HeartbeatIntervalMS: quietMS},
			func(c Counters) bool { return c.AutoRepairs == 1 && c.Heartbeats == 0 })
	}
}

// TestSweepRepairsCorpse is TestProbeEvictionRepairsCorpse's mirror: no
// probe timer fires, so no probe evicts the edges to a crashed host, and
// only a detector sweep that finds the corpse among its neighbors can purge
// it.
func TestSweepRepairsCorpse(t *testing.T) {
	for seed := uint64(43); seed < 53; seed++ {
		crashRepairs(t, Config{Policy: core.PROPG, Seed: seed, ProbeIntervalMS: quietMS, HeartbeatIntervalMS: 5},
			func(c Counters) bool { return c.AutoRepairs == 1 && c.Probes == 0 })
	}
}

// crashRepairs crashes the host of 12 agents' smallest slot and runs the
// agents on an engine until no corpse is left unpurged, within a second.
// Then the counters must be as want says, and the overlay whole.
func crashRepairs(t *testing.T, cfg Config, want func(Counters) bool) {
	t.Helper()
	rt, e := engineRuntime(t, 12, cfg, nil)
	defer rt.Stop()
	if err := rt.Crash(rt.Overlay().HostOf(0)); err != nil {
		t.Fatalf("crash: %v", err)
	}
	ok := until(e, 1000, func() bool { return len(rt.Overlay().CrashedSlots()) == 0 })
	if c := rt.Counters(); !ok || !want(c) {
		t.Fatalf("seed %d: corpse purged %v, counters %+v", cfg.Seed, ok, c)
	}
	if o := rt.Overlay(); o.CheckInvariants() != nil || !o.Connected() {
		t.Fatalf("seed %d: after repair: invariants %v, connected %v", cfg.Seed, o.CheckInvariants(), o.Connected())
	}
}

// TestRecoverRejoin drives the full lifecycle on ten seeds: crash a host,
// let the detector repair around the corpse, then Join the host again —
// same identity, next incarnation — and verify it rejoins the membership,
// probes, and the audit passes at quiesce.
func TestRecoverRejoin(t *testing.T) {
	for seed := uint64(44); seed < 54; seed++ {
		rt, e := engineRuntime(t, 12, Config{Policy: core.PROPG, Seed: seed, HeartbeatIntervalMS: 5}, nil)
		victim := rt.Overlay().AliveSlots()[3]
		victimHost := rt.Overlay().HostOf(victim)
		if err := rt.Crash(victimHost); err != nil {
			t.Fatalf("crash: %v", err)
		}
		// Rejoining before anyone repaired the corpse must also work (AddSlot
		// hands out a fresh slot; the corpse is repaired independently) — but
		// exercise the common order: detector repairs first.
		if !until(e, 1000, func() bool { return len(rt.Overlay().CrashedSlots()) == 0 }) {
			t.Fatalf("seed %d: corpse never repaired: %+v", seed, rt.Counters())
		}
		if _, err := rt.Join(rt.Overlay().HostOf(rt.Overlay().AliveSlots()[0])); err == nil {
			t.Fatal("join of a live host must fail")
		}
		slot, err := rt.Join(victimHost)
		if err != nil {
			t.Fatalf("join(%d): %v", victimHost, err)
		}
		a := rt.agents[victimHost]
		if inc := rt.incarnation[victimHost]; a == nil || inc < 2 || a.epoch != inc {
			t.Fatalf("seed %d: rejoined agent %v should run at incarnation ≥2 (incarnation %d)", seed, a, inc)
		}
		if slot == victim || degreeOf(rt, slot) == 0 || rt.Counters().Recovers != 1 {
			t.Fatalf("seed %d: rejoined at slot %d (dead slot %d) with degree %d, %d recovers; want a fresh linked slot and 1",
				seed, slot, victim, degreeOf(rt, slot), rt.Counters().Recovers)
		}
		// The runtime goes on probing, and membership stays sound at quiesce.
		probes := rt.Counters().Probes
		if !until(e, 1000, func() bool { return rt.Counters().Probes > probes+10 }) {
			t.Fatalf("seed %d: probing stopped after the rejoin", seed)
		}
		rt.Stop()
		auditQuiesced(t, rt.Overlay())
	}
}

// auditQuiesced checks a stopped runtime's overlay: bijection,
// connectivity and the overlay's own invariants.
func auditQuiesced(t *testing.T, o *overlay.Overlay) {
	t.Helper()
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

// TestEnsureConnectedBridgesComponents cuts an idle overlay into k
// components, k = 1..4: EnsureConnected adds k−1 edges, one per extra
// component, and leaves the overlay connected, so a second call adds none.
func TestEnsureConnectedBridgesComponents(t *testing.T) {
	for k := 1; k <= 4; k++ {
		rt := quietRuntime(t, 16, core.PROPG, transport.NewLoopback(transport.LoopbackConfig{}), 1000, event.New())
		o := rt.Overlay()
		n := o.NumSlots()
		for u := range n {
			for _, v := range slices.Clone(o.Neighbors(u)) {
				o.RemoveEdge(u, v)
			}
		}
		for u := 1; u < n; u++ { // k runs of consecutive slots, each a path
			if u*k/n == (u-1)*k/n {
				if err := o.AddEdge(u-1, u); err != nil {
					t.Fatal(err)
				}
			}
		}
		if roots := o.ComponentRoots(); len(roots) != k {
			t.Fatalf("cut into %d components, want %d", len(roots), k)
		}
		if added := rt.EnsureConnected(); added != k-1 || !o.Connected() {
			t.Fatalf("k=%d: EnsureConnected added %d edges, connected %v; want %d and connected", k, added, o.Connected(), k-1)
		}
		if added := rt.EnsureConnected(); added != 0 {
			t.Fatalf("k=%d: EnsureConnected added %d edges to a connected overlay", k, added)
		}
		rt.Stop()
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

// silentMS is the deadline for tests that make a host silent: a ping to it
// and its three retransmits give up in well under a second.
const silentMS = 40

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
		rt := quietRuntime(t, 16, core.PROPG, net, 1000, event.New())
		defer rt.Stop()
		u, path := twoHopPartner(t, rt, core.PROPG)
		rt.mu.Lock()
		a := rt.agents[rt.o.HostOf(u)]
		rt.o.SwapPairs(u, path[2], &a.sc)
		rt.mu.Unlock()
		pings := sent.Load

		p0 := pings()
		if got := measureNow(t, rt, a); got != len(a.sc.Pairs) {
			t.Fatalf("cold: measured %d of %d pairs", got, len(a.sc.Pairs))
		}
		cold, coldPings := slices.Clone(a.sc.RTT), pings()-p0
		sweepAll(t, rt)
		p1 := pings()
		if got := measureNow(t, rt, a); got != len(a.sc.Pairs) {
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
		rt := quietRuntime(t, 16, core.PROPG, net, silentMS, event.New())
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

		sweepAll(t, rt)
		if rtt, ok := remembered(a, silent); !ok || rtt != ClusterLat(hostU, silent) {
			t.Fatalf("after an answered sweep, neighbor %d's RTT is %v (remembered %v)", silent, rtt, ok)
		}
		net.silent.Store(int64(silent) + 1)
		sweep(t, rt, a)
		if rtt, ok := remembered(a, silent); ok {
			t.Fatalf("after an unanswered heartbeat, neighbor %d's RTT %v is still remembered", silent, rtt)
		}
		got := measureNow(t, rt, a)
		var ev core.Evaluation
		if why, _ := ev.Judge(a.sc.RTT, got, math.Inf(-1)); got > first || why != core.Poisoned {
			t.Fatalf("measured %d pairs past silent host %d's pair %d, judged %v; want Poisoned", got, silent, first, why)
		}
	})
}

// TestHeartbeatLadder pins that one heartbeat is the suspicion ladder: its
// transmissions wait PingTimeoutMS × 1, 2 and 4. A neighbor that answers only
// the k-th keeps its link, and its entry that RTT, for k = 1, 2, 3; one that
// answers none loses the link, and its RTT, within the sweep that sent them,
// exactly once all three deadlines — PingTimeoutMS × 7 — have passed.
func TestHeartbeatLadder(t *testing.T) {
	const timeout = 20
	for k := 0; k <= 3; k++ { // the transmission answered; 0 is none
		net := &hookNet{Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf})}
		e := event.New()
		rt := quietRuntime(t, 16, core.PROPG, net, timeout, e)
		rt.mu.Lock()
		a := rt.agents[0]
		nb := rt.o.HostOf(rt.o.Neighbors(rt.o.SlotOfHost(0))[0])
		rt.mu.Unlock()
		var sent atomic.Int32
		net.drop = func(from, to int, m transport.Message) bool {
			return from == 0 && to == nb && m.Type == transport.TPing && sent.Add(1) != int32(k)
		}
		evicts := rt.Counters().SuspectEvictions
		start := e.Now()
		sweep(t, rt, a)
		took := e.Now() - start
		rtt, ok := remembered(a, nb)
		kept := linked(rt, a, nb)
		rt.Stop()
		evicted := rt.Counters().SuspectEvictions - evicts

		// The deadlines that pass before the answer (all three without one).
		waited, want := timeout*[...]event.Time{7, 0, 1, 1 + 2}[k], int32(k)
		if k == 0 {
			want = heartbeatRetries + 1
		}
		switch {
		case sent.Load() != want:
			t.Errorf("k=%d: %d transmissions, want %d", k, sent.Load(), want)
		case took != waited:
			t.Errorf("k=%d: the sweep took %v ms, want %v", k, took, waited)
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
// readers measure through the queue concurrently, on wall time: one runs
// measure and two answer TMeasure lists, each waiting for its outcome, the
// silent host's on a deadline that fires on a timer goroutine. Every RTT a
// reader gets must be the ground truth.
// Run it under go test -race -count=10 -run TestNeighborTableLifetime.
func TestNeighborTableLifetime(t *testing.T) {
	net := &hookNet{Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf})}
	rt := quietRuntime(t, 16, core.PROPG, net, silentMS, nil)
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
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
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
			got := measureNow(t, rt, a)
			for k, pr := range a.sc.Pairs[:got] {
				if a.sc.RTT[k] != ClusterLat(0, pr[1]) {
					t.Errorf("measure: host %d at %v, want %v", pr[1], a.sc.RTT[k], ClusterLat(0, pr[1]))
				}
			}
		}
	}()
	for r := 0; r < 2; r++ { // the partner's side: each relay waits for its reply
		ep, err := net.Loopback.Open(98 + r)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		replies := inbox(ep)
		go func() {
			defer wg.Done()
			for {
				rt.handleMeasure(a, transport.Message{Type: transport.TMeasure, Src: ep.Host(), Body: body})
				var in transport.Inbound
				select {
				case <-stop:
					return
				case in = <-replies:
				}
				for k, h := range all[:len(in.Msg.Body)/8] {
					if got := math.Float64frombits(binary.BigEndian.Uint64(in.Msg.Body[8*k:])); got != ClusterLat(0, h) {
						t.Errorf("handleMeasure: host %d at %v, want %v", h, got, ClusterLat(0, h))
					}
				}
			}
		}()
	}
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
	sweep(t, rt, a)
	for _, h := range nbrs {
		answered(h)
	}

	// An exchange moves a neighbor's host out and a stranger's in.
	moved, stranger := nbrs[1], others[0]
	rt.mu.Lock()
	err := rt.o.SwapHosts(rt.o.SlotOfHost(moved), rt.o.SlotOfHost(stranger))
	rt.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, rt, a)
	if rtt, ok := remembered(a, moved); ok {
		t.Fatalf("host %d swapped out of the neighbor set keeps RTT %v", moved, rtt)
	}
	answered(stranger)

	// An unanswered heartbeat evicts the link and forgets the RTT.
	quiet := nbrs[0]
	net.silent.Store(int64(quiet) + 1)
	evicts := rt.Counters().SuspectEvictions
	sweep(t, rt, a)
	net.silent.Store(0)
	if got := rt.Counters().SuspectEvictions - evicts; got != 1 || linked(rt, a, quiet) {
		t.Fatalf("%d evictions, link to %d kept: %v; want the one link evicted", got, quiet, linked(rt, a, quiet))
	}
	if rtt, ok := remembered(a, quiet); ok {
		t.Fatalf("evicted host %d keeps RTT %v", quiet, rtt)
	}
}

package propnode

import (
	"slices"
	"time"

	"repro/internal/gnutella"
)

// Failure detection. Each agent runs a detector goroutine next to its probe
// loop: every HeartbeatIntervalMS it sweeps the agent's live neighbors with
// one heartbeat ping each. Misses accrue an integer suspicion level per
// neighbor host — a deterministic, integer-valued take on phi-accrual: the
// ping deadline stretches with the suspicion level (HeartbeatTimeout <<
// min(level, 3)), so a slow-but-alive peer earns exponentially more grace
// while a dead one runs out of it in SuspicionThreshold consecutive sweeps.
// Crossing the threshold evicts the neighbor link and tops the degree back
// up; a neighbor the overlay already knows is dead (crash-stop corpse) skips
// suspicion entirely and goes straight to membership repair — the same
// ring + top-up rule internal/gnutella applies, so detector-triggered repair
// and explicit RepairCrashed leave identical structure.
//
// The suspicion map is keyed by host, not slot: PROP exchanges migrate hosts
// between slots, and it is the host (the machine) that is unreachable.
// The map, like the sweep's list of live neighbor hosts (agent.hbLive), is
// owned exclusively by the detector goroutine — no locking, and nothing
// allocated per sweep.

// runDetector is one agent's failure-detector loop.
func (rt *Runtime) runDetector(a *agent, stagger time.Duration) {
	defer rt.wg.Done()
	interval := time.Duration(rt.cfg.HeartbeatIntervalMS * float64(time.Millisecond))
	if interval <= 0 {
		interval = time.Millisecond
	}
	timer := time.NewTimer(stagger)
	defer timer.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-timer.C:
		}
		rt.heartbeatOnce(a)
		timer.Reset(interval)
	}
}

// heartbeatOnce runs one detector sweep: snapshot the agent's live
// neighbors under the lock, then ping each one without it (pumps answer
// pings without taking rt.mu, so heartbeat traffic can never deadlock
// against an exchange holding the lock).
func (rt *Runtime) heartbeatOnce(a *agent) {
	rt.mu.Lock()
	if rt.o == nil || rt.agents[a.host] != a {
		rt.mu.Unlock()
		return
	}
	u := rt.o.SlotOfHost(a.host)
	if u < 0 || !rt.o.Alive(u) {
		rt.mu.Unlock()
		return
	}
	// rt.sc.Nbrs is valid while rt.mu is held; the live hosts outlive the
	// lock in the detector's own scratch.
	rt.sc.Nbrs = rt.o.Logical.AppendNeighbors(rt.sc.Nbrs[:0], u)
	live := a.hbLive[:0]
	corpses := false
	for _, nb := range rt.sc.Nbrs {
		if rt.o.Alive(nb) {
			live = append(live, rt.o.HostOf(nb))
		} else {
			corpses = true
		}
	}
	a.hbLive = live
	rt.mu.Unlock()

	if corpses {
		// The overlay already knows this neighbor died (crash-stop): no
		// suspicion to accrue — repair the membership hole immediately.
		rt.repairCorpses(a)
	}

	// Forget suspicion for ex-neighbors: accrual is per-link, and the link
	// is gone (exchange, leave, or an earlier eviction). Degrees are small,
	// so a scan of the live list beats building a set.
	for h := range a.susp {
		if !slices.Contains(live, h) {
			delete(a.susp, h)
		}
	}

	for _, host := range live {
		select {
		case <-a.stop:
			return
		default:
		}
		level := a.susp[host]
		shift := level
		if shift > 3 {
			shift = 3
		}
		rt.heartbeats.Add(1)
		if _, err := a.node.Ping(host, rt.cfg.HeartbeatTimeout<<shift, 0); err == nil {
			delete(a.susp, host)
			continue
		}
		level++
		a.susp[host] = level
		if level >= rt.cfg.SuspicionThreshold {
			delete(a.susp, host)
			rt.evictSuspect(a, host)
		}
	}
}

// repairCorpses runs crash-stop membership repair on behalf of a detector
// that found a dead neighbor: the standard ring + top-up pass over every
// unpurged corpse (repairing only a's own hole would starve corpses whose
// other survivors crashed too).
func (rt *Runtime) repairCorpses(a *agent) {
	rt.mu.Lock()
	if rt.o == nil || rt.agents[a.host] != a {
		rt.mu.Unlock()
		return
	}
	var affected []*agent
	if len(rt.o.CrashedSlots()) > 0 {
		gcfg := gnutella.Config{LinksPerJoin: rt.cfg.LinksPerJoin}
		n, err := gnutella.RepairCrashed(rt.o, gcfg, rt.r)
		if err == nil && n > 0 {
			rt.autoRepairs.Add(uint64(n))
			rt.suspectEvicts.Add(uint64(n))
			for _, ag := range rt.agents {
				affected = append(affected, ag)
			}
		}
	}
	rt.mu.Unlock()
	kickAll(affected)
}

// evictSuspect drops the link to a neighbor whose heartbeats crossed the
// suspicion threshold while the overlay still believes it alive — a silent
// failure or a partition. The evicting side tops its degree back up; the
// suspect keeps its (possibly reduced) degree and will be re-topped by
// repair if it really died, or re-earn links when it answers again.
func (rt *Runtime) evictSuspect(a *agent, suspect int) {
	rt.mu.Lock()
	if rt.o == nil || rt.agents[a.host] != a {
		rt.mu.Unlock()
		return
	}
	u := rt.o.SlotOfHost(a.host)
	if u < 0 || !rt.o.Alive(u) {
		rt.mu.Unlock()
		return
	}
	s := rt.o.SlotOfHost(suspect)
	if s < 0 || !rt.o.Alive(s) {
		// It crash-stopped between the sweep and now: corpse path.
		rt.mu.Unlock()
		rt.repairCorpses(a)
		return
	}
	if !rt.o.Logical.HasEdge(u, s) {
		// An exchange moved the link out from under the sweep — nothing to
		// evict.
		rt.mu.Unlock()
		return
	}
	rt.o.RemoveEdge(u, s)
	rt.suspectEvicts.Add(1)
	rt.topUpLocked(u)
	affected := rt.agentsForLocked(append(rt.o.Neighbors(u), u, s))
	rt.mu.Unlock()
	kickAll(affected)
}

// topUpLocked restores slot u's degree to LinksPerJoin with random live
// non-neighbors — the same rule gnutella's leave/crash repair applies.
// Caller holds rt.mu.
func (rt *Runtime) topUpLocked(u int) {
	alive := rt.o.AliveSlots()
	if len(alive) < 2 {
		return
	}
	for rt.o.Degree(u) < rt.cfg.LinksPerJoin {
		cand := alive[rt.r.Intn(len(alive))]
		if cand == u || rt.o.Logical.HasEdge(u, cand) {
			if rt.o.Degree(u) >= len(alive)-1 {
				return
			}
			continue
		}
		if err := rt.o.AddEdge(u, cand); err != nil {
			return
		}
	}
}

// EnsureConnected stitches the live overlay back into one component: a
// partition window can make both sides evict every cross-partition link, and
// nothing in the protocol re-bridges two healthy halves once the window
// closes. It links the smallest slot of each extra component to the smallest
// slot of the first and returns the number of edges added (0 when already
// connected). The chaos harness calls it at every quiesce point before the
// connectivity audit.
func (rt *Runtime) EnsureConnected() int {
	rt.mu.Lock()
	if rt.o == nil {
		rt.mu.Unlock()
		return 0
	}
	alive := rt.o.AliveSlots()
	seen := make(map[int]bool, len(alive))
	var reps []int // smallest slot of each component, discovery order
	for _, start := range alive {
		if seen[start] {
			continue
		}
		reps = append(reps, start)
		queue := []int{start}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, nb := range rt.o.Logical.Neighbors(v) {
				if rt.o.Alive(nb) && !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	added := 0
	for i := 1; i < len(reps); i++ {
		if err := rt.o.AddEdge(reps[0], reps[i]); err == nil {
			added++
		}
	}
	var affected []*agent
	if added > 0 {
		for _, ag := range rt.agents {
			affected = append(affected, ag)
		}
	}
	rt.mu.Unlock()
	kickAll(affected)
	return added
}

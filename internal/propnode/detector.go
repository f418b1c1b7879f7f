package propnode

import (
	"slices"
	"time"
)

// Failure detection. Each agent runs a detector goroutine next to its probe
// loop: every HeartbeatIntervalMS it sweeps the agent's live neighbors with
// one heartbeat ping each. Misses accrue an integer suspicion level per
// neighbor host — a deterministic, integer-valued take on phi-accrual: the
// ping deadline stretches with the suspicion level (HeartbeatTimeout <<
// min(level, 3)), so a slow-but-alive peer earns exponentially more grace
// while a dead one runs out of it in suspicionThreshold consecutive sweeps.
// Crossing the threshold evicts the neighbor link and tops the degree back
// up; a neighbor the overlay already knows is dead (crash-stop corpse) skips
// suspicion entirely and goes straight to membership repair — the same
// ring + top-up rule internal/gnutella applies, so detector-triggered repair
// and an explicit Repair leave identical structure.
//
// Heartbeats are also the RTT refresh (§3.2: a peer knows Σ d(u,i) to its
// neighbors): an answered heartbeat records its RTT, which an exchange reads
// instead of pinging the neighbor again (rtt); a missed one drops it, so a
// silent neighbor is pinged again and fails the evaluation.
//
// The table is keyed by host, not slot: PROP exchanges migrate hosts
// between slots, and it is the host (the machine) that is unreachable. Each
// sweep rebuilds it from the live neighbors without allocating, so an
// ex-neighbor (exchange, leave, eviction) loses its record. The detector
// goroutine alone writes it, under agent.nbrMu, held across no round trip.

// nbr is the detector's record of one live neighbor host: its suspicion
// level and the RTT of its last heartbeat, negative when that heartbeat
// missed or none has been answered yet.
type nbr struct {
	host  int
	level int
	rtt   float64
}

// find returns the index of host's record in a.nbrs, or -1. Degrees are
// small, so a scan beats a map. Caller holds a.nbrMu or is the detector.
func (a *agent) find(host int) int {
	return slices.IndexFunc(a.nbrs, func(n nbr) bool { return n.host == host })
}

// suspicionThreshold is the accrual bound: a neighbor whose heartbeats miss
// this many consecutive sweeps is evicted and membership repair runs.
const suspicionThreshold = 3

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

// heartbeatOnce runs one detector sweep: rebuild the agent's table from its
// live neighbors under the lock, then ping each one without it (pumps answer
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
	// rt.sc.Nbrs is valid while rt.mu is held. The next table goes into the
	// spare buffer, each record carried over from the last sweep or new.
	rt.sc.Nbrs = rt.o.Logical.AppendNeighbors(rt.sc.Nbrs[:0], u)
	next := a.spare[:0]
	corpses := false
	for _, nb := range rt.sc.Nbrs {
		if !rt.o.Alive(nb) {
			corpses = true
			continue
		}
		rec := nbr{host: rt.o.HostOf(nb), rtt: -1}
		if i := a.find(rec.host); i >= 0 {
			rec = a.nbrs[i]
		}
		next = append(next, rec)
	}
	rt.mu.Unlock()
	a.nbrMu.Lock()
	a.nbrs, a.spare = next, a.nbrs
	a.nbrMu.Unlock()

	if corpses {
		// The overlay already knows this neighbor died (crash-stop): no
		// suspicion to accrue — repair the membership hole immediately.
		rt.repairCorpses(a)
	}

	for i := range next {
		select {
		case <-a.stop:
			return
		default:
		}
		host := next[i].host
		rt.heartbeats.Add(1)
		rtt, err := a.node.Ping(host, rt.cfg.HeartbeatTimeout<<min(next[i].level, 3), 0)
		a.nbrMu.Lock()
		rec := &next[i]
		rec.level, rec.rtt = rec.level+1, -1
		if err == nil {
			rec.level, rec.rtt = 0, rtt
		}
		evict := rec.level >= suspicionThreshold
		if evict {
			rec.level = 0
		}
		a.nbrMu.Unlock()
		if evict {
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
	n, affected, err := rt.repairLocked()
	if err == nil {
		rt.autoRepairs.Add(uint64(n))
		rt.suspectEvicts.Add(uint64(n))
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
	rt.members.TopUp(u, rt.r)
	affected := rt.agentsForLocked(append(rt.o.Neighbors(u), u, s))
	rt.mu.Unlock()
	kickAll(affected)
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
	roots := rt.o.ComponentRoots()
	added := 0
	for i := 1; i < len(roots); i++ {
		if rt.o.AddEdge(roots[0], roots[i]) == nil {
			added++
		}
	}
	var affected []*agent
	if added > 0 {
		affected = rt.allAgentsLocked()
	}
	rt.mu.Unlock()
	kickAll(affected)
	return added
}

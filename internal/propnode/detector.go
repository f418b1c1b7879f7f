package propnode

import (
	"repro/internal/event"
	"repro/internal/transport"
)

// Failure detection. Each agent's sweep timer fires every
// HeartbeatIntervalMS; a sweep keeps no state beyond the neighbor list it
// walks. It reconciles the agent's neighborQ with its live neighbors and
// sends each one heartbeat, one after another: a ping whose retransmits
// wait PingTimeout × 1, 2 and 4 — the suspicion ladder, so a
// slow-but-alive peer gets exponentially more grace and a dead one is out
// of it within the sweep. An answered heartbeat is the RTT refresh (§3.2:
// a peer knows Σ d(u,i) to its neighbors): it is remembered in the
// neighbor's entry, with the host measured — PROP-G moves hosts between
// slots — and exchanges read it (rtt). An unanswered one makes the entry
// cold, evicts the link and tops the degree back up. A neighbor the overlay
// already knows is dead (crash-stop corpse) gets no heartbeat: the sweep
// runs membership repair, the same ring + top-up rule internal/gnutella
// applies, so detector-triggered repair and an explicit Repair leave
// identical structure. The sweep writes the queue under a.mu, held across
// no round trip.

// heartbeatRetries bounds a heartbeat's retransmits: three deadlines.
const heartbeatRetries = 2

// heartbeatOnce opens one detector sweep, unless one runs: under the locks,
// reconcile the agent's neighborQ with its live neighbors and list each
// one's slot and host in a.nbrs; then, holding neither, heartbeat them
// (nodes answer pings without taking a lock, so heartbeat traffic can never
// deadlock against an input holding one).
func (rt *Runtime) heartbeatOnce(a *agent) {
	a.mu.Lock()
	busy := a.sweeping
	a.sweeping = true
	a.mu.Unlock()
	if busy {
		return
	}
	a.nbrs, a.next = a.nbrs[:0], 0
	rt.mu.Lock()
	u := rt.o.SlotOfHost(a.host)
	if rt.agents[a.host] != a || u < 0 || !rt.o.Alive(u) {
		rt.mu.Unlock()
		rt.heartbeat(a, false)
		return
	}
	// rt.sc.Nbrs is valid while rt.mu is held; live keeps its live prefix.
	rt.sc.Nbrs = rt.o.Logical.AppendNeighbors(rt.sc.Nbrs[:0], u)
	live := rt.sc.Nbrs[:0]
	for _, nb := range rt.sc.Nbrs {
		if rt.o.Alive(nb) {
			live = append(live, nb)
			a.nbrs = append(a.nbrs, [2]int{nb, rt.o.HostOf(nb)})
		}
	}
	corpses := len(live) < len(rt.sc.Nbrs)
	a.mu.Lock()
	a.cyc.Reconcile(live)
	a.mu.Unlock()
	rt.mu.Unlock()

	if corpses {
		// The overlay already knows this neighbor died (crash-stop): no
		// heartbeat to send — repair the membership hole immediately.
		rt.repairCorpses(a)
	}
	rt.heartbeat(a, false)
}

// heartbeat pings the sweep's neighbors from a.next on — answered: the
// outcome of a.next's heartbeat is in a.beat — one after another, and ends
// the sweep once they are done or a is halted, arming the sweep timer. An
// answered heartbeat's RTT is remembered; an unanswered one makes the
// entry cold and evicts the link.
func (rt *Runtime) heartbeat(a *agent, answered bool) {
	for ; a.next < len(a.nbrs); a.next++ {
		nb := a.nbrs[a.next]
		if !answered {
			if a.halted.Load() {
				break
			}
			rt.heartbeats.Add(1)
			if !rt.call(a, &a.beat, nb[1], transport.Message{Type: transport.TPing}, heartbeatRetries) {
				return
			}
		}
		answered = false
		rtt, err := transport.PongRTT(a.beat.in, a.beat.err)
		if err != nil {
			rtt = -1
		}
		a.mu.Lock()
		a.cyc.Remember(nb[0], nb[1], rtt)
		a.mu.Unlock()
		if err != nil {
			rt.evictSuspect(a, nb[1])
		}
	}
	a.mu.Lock()
	a.sweeping = false
	if !a.halted.Load() {
		a.sweep.Reset(event.Time(rt.cfg.HeartbeatIntervalMS))
	}
	a.mu.Unlock()
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

// evictSuspect drops the link to a neighbor whose heartbeat went unanswered
// while the overlay still believes it alive — a silent failure or a
// partition. The evicting side tops its degree back up; the
// suspect keeps its (possibly reduced) degree and will be re-topped by
// repair if it really died, or re-earn links when it answers again.
func (rt *Runtime) evictSuspect(a *agent, suspect int) {
	rt.mu.Lock()
	u := rt.o.SlotOfHost(a.host)
	if rt.agents[a.host] != a || !rt.o.Alive(u) {
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

package propnode

import "time"

// Failure detection. Each agent runs a detector goroutine next to its probe
// loop, with no state of its own: every HeartbeatIntervalMS a sweep
// reconciles the agent's neighborQ with its live neighbors and sends each
// one heartbeat, a Node.Ping whose retransmits wait PingTimeout × 1, 2 and 4
// — the suspicion ladder, so a slow-but-alive peer gets exponentially more
// grace and a dead one is out of it within the sweep. An answered heartbeat
// is the RTT refresh (§3.2: a peer knows Σ d(u,i) to its neighbors): it is
// remembered in the neighbor's entry, with the host measured — PROP-G moves
// hosts between slots — and exchanges read it (rtt). An unanswered one makes
// the entry cold, evicts the link and tops the degree back up. A neighbor
// the overlay already knows is dead (crash-stop corpse) gets no heartbeat:
// the sweep runs membership repair, the same ring + top-up rule
// internal/gnutella applies, so detector-triggered repair and an explicit
// Repair leave identical structure. The sweep writes the queue under a.mu,
// held across no round trip.

// heartbeatRetries bounds a heartbeat's retransmits: three deadlines.
const heartbeatRetries = 2

// runDetector is one agent's failure-detector loop. nbrs is the sweeps'
// reused list of live neighbors.
func (rt *Runtime) runDetector(a *agent, stagger time.Duration) {
	defer rt.wg.Done()
	interval := time.Duration(rt.cfg.HeartbeatIntervalMS * float64(time.Millisecond))
	if interval <= 0 {
		interval = time.Millisecond
	}
	timer := time.NewTimer(stagger)
	defer timer.Stop()
	var nbrs [][2]int
	for {
		select {
		case <-a.stop:
			return
		case <-timer.C:
		}
		nbrs = rt.heartbeatOnce(a, nbrs[:0])
		timer.Reset(interval)
	}
}

// heartbeatOnce runs one detector sweep: under the locks, reconcile the
// agent's neighborQ with its live neighbors and append each one's slot and
// host to nbrs; then, holding neither, send each its heartbeat (nodes
// answer pings without taking a lock, so heartbeat traffic can never
// deadlock against an exchange holding one). It returns nbrs.
func (rt *Runtime) heartbeatOnce(a *agent, nbrs [][2]int) [][2]int {
	rt.mu.Lock()
	if rt.o == nil || rt.agents[a.host] != a {
		rt.mu.Unlock()
		return nbrs
	}
	u := rt.o.SlotOfHost(a.host)
	if u < 0 || !rt.o.Alive(u) {
		rt.mu.Unlock()
		return nbrs
	}
	// rt.sc.Nbrs is valid while rt.mu is held; live keeps its live prefix.
	rt.sc.Nbrs = rt.o.Logical.AppendNeighbors(rt.sc.Nbrs[:0], u)
	live := rt.sc.Nbrs[:0]
	for _, nb := range rt.sc.Nbrs {
		if rt.o.Alive(nb) {
			live = append(live, nb)
			nbrs = append(nbrs, [2]int{nb, rt.o.HostOf(nb)})
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

	for _, nb := range nbrs {
		select {
		case <-a.stop:
			return nbrs
		default:
		}
		rt.heartbeats.Add(1)
		rtt, err := a.node.Ping(nb[1], rt.cfg.PingTimeout, heartbeatRetries)
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
	return nbrs
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

package propnode

import (
	"cmp"
	"fmt"
	"slices"
)

// Membership: the runtime runs internal/gnutella's overlay.Membership
// (rt.members) over the shared overlay and layers the live concerns on top:
// endpoints open and close with the node, agents start and stop, and
// affected survivors get the §3.2 timer reset. Every call is addressed by
// host — the machine's lasting identity, which PROP-G exchanges move between
// slots — and resolves the host's slot under rt.mu, so no exchange can move
// the host between the lookup and the membership step.

// Join brings host online: open its endpoint, wire it into the overlay,
// start its agent, and kick its new neighbors. A host that ran before — it
// crashed or left — rejoins like any other arrival, one incarnation later,
// so every message or exchange attempt left over from its earlier life is
// absorbed by the epoch guards; Counters.Recovers counts such rejoins. The
// endpoint opens first: a refused Open (a previous incarnation's endpoint
// still closing is one) leaves the overlay untouched. Returns the new slot.
func (rt *Runtime) Join(host int) (int, error) {
	rt.mu.Lock()
	if rt.o == nil || rt.stopped.Load() {
		rt.mu.Unlock()
		return 0, fmt.Errorf("propnode: join(%d) on a stopped runtime", host)
	}
	ep, err := rt.net.Open(host)
	if err != nil {
		rt.mu.Unlock()
		return 0, fmt.Errorf("propnode: open host %d: %w", host, err)
	}
	slot, err := rt.members.Join(host, rt.r)
	if err != nil {
		rt.mu.Unlock()
		ep.Close()
		return 0, err
	}
	if rt.incarnation[host] > 0 {
		rt.recovers.Add(1)
	}
	rt.spawnLocked(host, ep)
	affected := rt.agentsForLocked(rt.o.Neighbors(slot))
	rt.mu.Unlock()
	kickAll(affected)
	return slot, nil
}

// Leave takes host offline gracefully: stop its agent, repair the overlay
// around its slot, close its endpoint, kick the former neighbors.
func (rt *Runtime) Leave(host int) error {
	rt.mu.Lock()
	if _, err := rt.slotLocked("leave", host); err != nil {
		rt.mu.Unlock()
		return err
	}
	a := rt.agents[host]
	delete(rt.agents, host)
	rt.mu.Unlock()

	// Halt the departing agent before rewiring, so no new probe of its own
	// races the repair.
	if a != nil {
		a.halt()
	}

	// Another agent's exchange may have moved the host meanwhile: resolve
	// its slot anew.
	rt.mu.Lock()
	var affected []*agent
	slot, err := rt.slotLocked("leave", host)
	if err == nil {
		former := rt.o.Neighbors(slot)
		if err = rt.members.Leave(slot, rt.r); err == nil {
			affected = rt.agentsForLocked(former)
		}
	}
	rt.mu.Unlock()

	if a != nil {
		a.node.Close()
	}
	kickAll(affected)
	return err
}

// Crash kills host crash-stop: its endpoint vanishes mid-flight (in-progress
// calls to it time out), survivors keep stale references until eviction or
// Repair catches up — nobody is notified.
func (rt *Runtime) Crash(host int) error {
	rt.mu.Lock()
	slot, err := rt.slotLocked("crash", host)
	if err == nil {
		err = rt.members.Crash(slot)
	}
	if err != nil {
		rt.mu.Unlock()
		return err
	}
	a := rt.agents[host]
	delete(rt.agents, host)
	rt.mu.Unlock()

	// The dying node closes without the lock: it fails the agent's calls in
	// flight, whose done callbacks take it.
	if a != nil {
		a.halt()
		a.node.Close()
	}
	return nil
}

// Repair runs one failure-recovery round over the whole overlay and kicks
// every surviving agent (their neighborhoods may have been patched). It
// reports how many corpses were repaired.
func (rt *Runtime) Repair() (int, error) {
	rt.mu.Lock()
	if rt.o == nil {
		rt.mu.Unlock()
		return 0, fmt.Errorf("propnode: repair on a stopped runtime")
	}
	n, affected, err := rt.repairLocked()
	rt.mu.Unlock()
	kickAll(affected)
	return n, err
}

// repairLocked is the one membership repair step, shared by Repair and the
// failure detector: the ring + top-up pass over every unpurged corpse. It
// returns the number repaired and, when there were any, every agent to kick.
// Caller holds rt.mu.
func (rt *Runtime) repairLocked() (int, []*agent, error) {
	n, err := rt.members.Repair(rt.r)
	if err != nil || n == 0 {
		return n, nil, err
	}
	return n, rt.allAgentsLocked(), nil
}

// slotLocked resolves the live slot host backs, for op's error message.
// Caller holds rt.mu.
func (rt *Runtime) slotLocked(op string, host int) (int, error) {
	if rt.o == nil || rt.stopped.Load() {
		return 0, fmt.Errorf("propnode: %s(%d) on a stopped runtime", op, host)
	}
	slot := rt.o.SlotOfHost(host)
	if !rt.o.Alive(slot) {
		return 0, fmt.Errorf("propnode: %s(%d): host backs no live slot", op, host)
	}
	return slot, nil
}

// agentsForLocked resolves live agents for the given slots. Caller holds rt.mu.
func (rt *Runtime) agentsForLocked(slots []int) []*agent {
	var out []*agent
	for _, s := range slots {
		if a, ok := rt.agents[rt.o.HostOf(s)]; ok && rt.o.Alive(s) {
			out = append(out, a)
		}
	}
	return out
}

// allAgentsLocked lists every live agent, by host. Caller holds rt.mu.
func (rt *Runtime) allAgentsLocked() []*agent {
	out := make([]*agent, 0, len(rt.agents))
	for _, a := range rt.agents {
		out = append(out, a)
	}
	slices.SortFunc(out, func(a, b *agent) int { return cmp.Compare(a.host, b.host) })
	return out
}

// kickAll applies the §3.2 timer reset to agents (kick).
func kickAll(agents []*agent) {
	for _, a := range agents {
		a.kick()
	}
}

package propnode

import "fmt"

// Membership: the runtime runs internal/gnutella's overlay.Membership
// (rt.members) over the shared overlay and layers the live concerns on top:
// endpoints open and close with the node, agents start and stop, and
// affected survivors get the §3.2 timer reset.

// Join brings a new host online: wire it into the overlay, open its
// endpoint, start its agent, and kick its new neighbors.
func (rt *Runtime) Join(host int) (int, error) {
	rt.mu.Lock()
	if rt.o == nil || rt.stopped {
		rt.mu.Unlock()
		return 0, fmt.Errorf("propnode: join on a stopped runtime")
	}
	slot, err := rt.members.Join(host, rt.r)
	if err != nil {
		rt.mu.Unlock()
		return 0, err
	}
	if err := rt.spawnLocked(host); err != nil {
		rt.mu.Unlock()
		return 0, err
	}
	neighbors := rt.o.Neighbors(slot)
	affected := rt.agentsForLocked(neighbors)
	rt.mu.Unlock()
	kickAll(affected)
	return slot, nil
}

// Leave takes the slot's host offline gracefully: stop its agent, repair
// the overlay around it, close its endpoint, kick the former neighbors.
func (rt *Runtime) Leave(slot int) error {
	rt.mu.Lock()
	if rt.o == nil || !rt.o.Alive(slot) {
		rt.mu.Unlock()
		return fmt.Errorf("propnode: leave(%d) on dead slot", slot)
	}
	host := rt.o.HostOf(slot)
	former := rt.o.Neighbors(slot)
	a := rt.agents[host]
	delete(rt.agents, host)
	rt.mu.Unlock()

	// Quiesce the departing agent before rewiring, so it cannot race its
	// own probe against the repair.
	if a != nil {
		close(a.stop)
	}

	rt.mu.Lock()
	if err := rt.members.Leave(slot, rt.r); err != nil {
		rt.mu.Unlock()
		if a != nil {
			a.node.Close()
		}
		return err
	}
	affected := rt.agentsForLocked(former)
	rt.mu.Unlock()

	if a != nil {
		a.node.Close()
	}
	kickAll(affected)
	return nil
}

// Crash kills the slot's host crash-stop: the endpoint vanishes mid-flight
// (in-progress calls to it time out), survivors keep stale references until
// eviction or Repair catches up — nobody is notified.
func (rt *Runtime) Crash(slot int) error {
	rt.mu.Lock()
	return rt.crashLocked(slot)
}

// CrashHost is Crash addressed by host: the host→slot resolution happens
// under the same lock as the kill, so an in-flight exchange cannot migrate
// the host to another slot between lookup and death (Crash by slot kills
// whoever backs the slot *now* — the right semantics for "this machine
// dies" is this one).
func (rt *Runtime) CrashHost(host int) error {
	rt.mu.Lock()
	if rt.o == nil {
		rt.mu.Unlock()
		return fmt.Errorf("propnode: crash-host(%d) on a stopped runtime", host)
	}
	slot := rt.o.SlotOfHost(host)
	if slot < 0 {
		rt.mu.Unlock()
		return fmt.Errorf("propnode: crash-host(%d): host backs no live slot", host)
	}
	return rt.crashLocked(slot)
}

// crashLocked executes the crash-stop. Caller holds rt.mu; released on every
// path (the dying agent's node must close without the lock — its in-flight
// handlers may be waiting on it).
func (rt *Runtime) crashLocked(slot int) error {
	if rt.o == nil || !rt.o.Alive(slot) {
		rt.mu.Unlock()
		return fmt.Errorf("propnode: crash(%d) on dead slot", slot)
	}
	host := rt.o.HostOf(slot)
	if err := rt.members.Crash(slot); err != nil {
		rt.mu.Unlock()
		return err
	}
	a := rt.agents[host]
	delete(rt.agents, host)
	rt.mu.Unlock()

	if a != nil {
		close(a.stop)
		a.node.Close()
	}
	return nil
}

// Recover restarts a crashed host with its persisted identity: the host's
// incarnation counter survived the crash, so the restarted agent comes up
// one epoch later and every message or exchange attempt left over from the
// pre-crash life is absorbed by the epoch guards instead of corrupting the
// slot bijection. The host rejoins through the live bootstrap exactly like a
// fresh node — its old slot is gone (or still a corpse awaiting repair; both
// are fine, AddSlot hands out a new one). Returns the new slot.
func (rt *Runtime) Recover(host int) (int, error) {
	rt.mu.Lock()
	if rt.o == nil || rt.stopped {
		rt.mu.Unlock()
		return 0, fmt.Errorf("propnode: recover on a stopped runtime")
	}
	if rt.incarnation[host] == 0 {
		rt.mu.Unlock()
		return 0, fmt.Errorf("propnode: recover(%d): host has no prior incarnation", host)
	}
	if _, up := rt.agents[host]; up {
		rt.mu.Unlock()
		return 0, fmt.Errorf("propnode: recover(%d): host is already live", host)
	}
	slot, err := rt.members.Join(host, rt.r)
	if err != nil {
		rt.mu.Unlock()
		return 0, err
	}
	if err := rt.spawnLocked(host); err != nil {
		rt.mu.Unlock()
		return 0, err
	}
	rt.recovers.Add(1)
	affected := rt.agentsForLocked(rt.o.Neighbors(slot))
	rt.mu.Unlock()
	kickAll(affected)
	return slot, nil
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
	n, err := rt.members.Repair(rt.r)
	if err != nil {
		rt.mu.Unlock()
		return n, err
	}
	var affected []*agent
	if n > 0 {
		for _, a := range rt.agents {
			affected = append(affected, a)
		}
	}
	rt.mu.Unlock()
	kickAll(affected)
	return n, nil
}

// agentsForLocked resolves live agents for the given slots. Caller holds rt.mu.
func (rt *Runtime) agentsForLocked(slots []int) []*agent {
	var out []*agent
	for _, s := range slots {
		if !rt.o.Alive(s) {
			continue
		}
		if a, ok := rt.agents[rt.o.HostOf(s)]; ok {
			out = append(out, a)
		}
	}
	return out
}

// kickAll delivers the timer-reset nudge without blocking: a full kick
// channel means a reset is already pending.
func kickAll(agents []*agent) {
	for _, a := range agents {
		select {
		case a.kick <- struct{}{}:
		default:
		}
	}
}

package shard

import (
	"fmt"

	"repro/internal/core"
)

// The protocol handlers: a message-passing PROP-G adapted to the sharded
// engine. One probe cycle is
//
//	kProbe → kWalk×(nhop) → kReport → [kCommit → (kCommitOK | kReject)] → kNotify×deg
//
// with the swap-gain evaluation done on estLat latencies and the two-phase
// commit guarded by per-peer swap versions, so concurrent probes over the
// same slots never tear the slot↔peer bijection. The transaction's rules
// are core.Txn's; the handlers keep the sends, timers, occupant caches,
// strikes and Stats. Handlers obey one discipline that everything else
// rests on: they read and write ONLY the addressed peer's state (plus
// immutable world data and message payloads). That is what makes parallel
// shard execution race-free and the event stream shard-count invariant.
//
// Fault model (Config.Faults, DESIGN.md §9/§12). Every message's fate —
// lost, duplicated, jittered, or dropped by the domain partition — is
// decided at SEND time in the sender's shard, as a pure function of (seed,
// directed link, the message's own sequence number, and the send time):
// faults.DeliverStateless for the per-message draws and the routerDomain
// table for the partition cut. No shared mutable state, no draw-order dependence —
// which is why the byte-identical-across-shard-counts contract survives
// fault injection untouched. Crash-stop churn is the one receiver-side
// fault: a dead peer silently drops every arrival, and deadness at any
// arrival time is itself a pure function of the processed event prefix.
// The one exemption, core.Txn's one assumption, is the reliable ack:
// kCommitOK is never lost or duplicated (jitter still applies).

// send assigns m's ordering key from the sending peer, decides its fate
// under the fault schedule, and delivers it: same-shard messages go
// straight into the local queue, cross-shard ones into the outbox drained
// at the next epoch barrier. A lost message still consumes the sender's
// sequence number, so losses never perturb the ordering keys of later
// traffic.
func (e *Engine) send(sh *shardRun, now float64, m msg) {
	m.origin = m.from
	m.oseq = e.oseq[m.from]
	e.oseq[m.from]++
	d := e.estLat(m.from, m.to)
	m.at = now + d
	if !e.inject(sh, now, d, &m) {
		return
	}
	e.post(sh, d, m)
}

// post routes a stamped message to its destination queue or outbox.
// Cross-shard delivery asserts the lookahead bound on the raw physical
// delay d — by construction (a cross-domain estLat is the exact distance,
// never below the floor, and jitter is strictly additive on top of d) the
// panic is unreachable.
func (e *Engine) post(sh *shardRun, d float64, m msg) {
	dst := e.shardOf(m.to)
	if dst == sh.id {
		sh.queue.push(m)
		return
	}
	if d < e.lookahead {
		panic(fmt.Sprintf("shard: cross-shard delay %v below lookahead %v (peers %d→%d)", d, e.lookahead, m.from, m.to))
	}
	sh.out[dst] = append(sh.out[dst], m)
	sh.stats.CrossShard++
}

// inject applies the fault schedule to one stamped message and reports
// whether it is delivered. On duplication the copy is posted here with a
// fresh sequence number and an independent jitter draw (it may even
// overtake the original); core.Txn's guards make duplicates harmless.
func (e *Engine) inject(sh *shardRun, now, d float64, m *msg) bool {
	if m.kind == kCommitOK {
		// Reliable-ack abstraction (see the package comment above):
		// jitter only, never lost, never duplicated.
		m.at += e.inj.JitterStateless(int(m.from), int(m.to), uint64(m.oseq))
		return true
	}
	if e.partitioned(m.from, m.to, now) {
		sh.stats.PartitionDrops++
		return false
	}
	del := e.inj.DeliverStateless(int(m.from), int(m.to), uint64(m.oseq), now)
	if del.Lost {
		sh.stats.Lost++
		return false
	}
	m.at += del.DelayMS
	if del.Dup {
		cp := *m
		cp.oseq = e.oseq[m.from]
		e.oseq[m.from]++
		cp.at = now + d + e.inj.JitterStateless(int(m.from), int(m.to), uint64(cp.oseq))
		sh.stats.DupsSent++
		e.post(sh, d, cp)
	}
	return true
}

// schedule enqueues a self-timer for peer p at an absolute time, carrying
// the probe cycle c it guards (0 for none). Timers never cross shards.
func (e *Engine) schedule(sh *shardRun, p int32, at float64, k kind, c uint32) {
	m := msg{at: at, origin: p, oseq: e.oseq[p], from: p, to: p, kind: k, c: int32(c)}
	e.oseq[p]++
	sh.queue.push(m)
}

// handle dispatches one event. Under churn, a dead addressee silently
// drops everything except its own crash event — the receiver-side half of
// the crash-stop model.
func (e *Engine) handle(sh *shardRun, m *msg) {
	if e.dead[m.to] && m.kind != kCrash {
		sh.stats.DeadDrops++
		return
	}
	switch m.kind {
	case kProbe:
		e.handleProbe(sh, m)
	case kWalk:
		e.handleWalk(sh, m)
	case kReport:
		e.handleReport(sh, m)
	case kCommit:
		e.handleCommit(sh, m)
	case kCommitOK:
		e.handleCommitOK(sh, m)
	case kNotify:
		e.handleNotify(sh, m)
	case kCrash:
		e.handleCrash(sh, m)
	case kProbeTO:
		e.handleProbeTO(sh, m)
	case kCommitTO:
		e.handleCommitTO(sh, m)
	}
}

// pickNeighbor draws one believed-occupant entry of peer w's current slot
// s, skipping entries evicted for deadness (-1): with none evicted it is
// draw%deg. ok is false when every entry is evicted (the peer is
// overlay-isolated until a kNotify revives one).
func (e *Engine) pickNeighbor(w int32, s int32) (j int, target int32, ok bool) {
	d := e.deg(s)
	row := e.occRow[int(w)*maxDeg : int(w)*maxDeg+d]
	valid := 0
	for _, q := range row {
		if q >= 0 {
			valid++
		}
	}
	if valid == 0 {
		return 0, 0, false
	}
	k := int(e.draw(w) % uint64(valid))
	for i, q := range row {
		if q < 0 {
			continue
		}
		if k == 0 {
			return i, q, true
		}
		k--
	}
	panic("shard: pickNeighbor ran past its row")
}

// handleProbe starts one probe cycle: reschedule the timer (jittered ±25%,
// only while before the horizon) and, if the peer is idle, open a cycle
// (its number is stamped into every cycle-scoped message) and launch a
// random walk to find a swap candidate, with a timeout covering the walk
// plus the report leg. A busy peer (mid-probe or mid-commit) skips the
// cycle rather than queueing.
func (e *Engine) handleProbe(sh *shardRun, m *msg) {
	u := m.to
	sh.stats.Probes++
	// The explicit conversions round each product, so no GOARCH fuses a
	// multiply-add here: a fused sum can differ in the last bit.
	next := m.at + float64(probeIntervalMS*(0.75+float64(0.5*u01(e.draw(u)))))
	if next < e.cfg.HorizonMS {
		e.schedule(sh, u, next, kProbe, 0)
	}
	if !e.txn[u].Idle() {
		return
	}
	j, target, ok := e.pickNeighbor(u, e.slotOf[u])
	if !ok {
		sh.stats.NoNeighbor++
		return
	}
	c, _ := e.txn[u].Open() // idle, so never refused
	e.probeNbr[u] = uint8(j)
	sh.stats.Walks++
	e.send(sh, m.at, msg{from: u, to: target, kind: kWalk, a: u, c: int32(c), hops: uint8(walkHops - 1)})
	e.schedule(sh, u, m.at+e.probeTO, kProbeTO, c)
}

// handleWalk forwards the walk through believed occupants; at the last hop
// the endpoint reports itself (slot, version, occupant cache) to the
// probing peer, echoing the probing peer's cycle counter.
func (e *Engine) handleWalk(sh *shardRun, m *msg) {
	w := m.to
	origin := m.a
	if m.hops == 0 {
		sw := e.slotOf[w]
		rep := msg{from: w, to: origin, kind: kReport, a: sw, b: int32(e.txn[w].Version()), c: m.c}
		rep.rlen = uint8(e.deg(sw))
		copy(rep.row[:], e.occRow[int(w)*maxDeg:int(w)*maxDeg+int(rep.rlen)])
		sh.stats.Reports++
		e.send(sh, m.at, rep)
		return
	}
	sw := e.slotOf[w]
	_, target, ok := e.pickNeighbor(w, sw)
	if !ok {
		// Walk dead-ends on a fully-evicted cache; the probing peer's
		// timeout will close the cycle.
		sh.stats.NoNeighbor++
		return
	}
	sh.stats.Walks++
	e.send(sh, m.at, msg{from: w, to: target, kind: kWalk, a: origin, c: m.c, hops: m.hops - 1})
}

// swapCost sums the estimated latency from peer p (sitting on slot s) to
// the believed occupants row of s's neighbors; entries whose slot equals
// swapSlot are remapped to swapPeer, which is how the post-swap
// configuration is evaluated without mutating anything. Evicted entries
// (-1) contribute nothing on either side of the comparison.
func (e *Engine) swapCost(p, s int32, row []int32, swapSlot, swapPeer int32) float64 {
	total := 0.0
	for i, x := range e.nbrs(s) {
		q := row[i]
		if x == swapSlot {
			q = swapPeer
		}
		if q < 0 {
			continue
		}
		total += e.estLat(p, q)
	}
	return total
}

// handleReport evaluates the swap between the probing peer u (slot su) and
// the reported endpoint v (slot sv): would exchanging slots reduce the
// summed estimated latency of both neighborhoods? A clear gain sends a
// version-conditioned commit proposal and locks u until the
// acknowledgment or the timeout covering the commit round trip.
func (e *Engine) handleReport(sh *shardRun, m *msg) {
	u, v := m.to, m.from
	switch e.txn[u].Reported(uint32(m.c)) {
	case core.Ignored:
		return
	case core.Stale:
		sh.stats.StaleGuards++
		return
	}
	// The cycle round-tripped: clear the liveness strikes against its
	// first-hop neighbor.
	e.failCnt[int(u)*maxDeg+int(e.probeNbr[u])] = 0
	sv := m.a
	su := e.slotOf[u]
	if v == u || sv == su {
		return
	}
	rowU := e.occRow[int(u)*maxDeg : int(u)*maxDeg+e.deg(su)]
	rowV := m.row[:m.rlen]
	before := e.swapCost(u, su, rowU, -1, -1) + e.swapCost(v, sv, rowV, -1, -1)
	after := e.swapCost(u, sv, rowV, su, v) + e.swapCost(v, su, rowU, sv, u)
	if before-after <= minGainMS {
		sh.stats.GainRejected++
		return
	}
	e.txn[u].Propose(uint32(m.c)) // the report was just taken
	com := msg{from: u, to: v, kind: kCommit, a: su, b: m.b, c: m.c}
	com.rlen = uint8(len(rowU))
	copy(com.row[:], rowU)
	sh.stats.Commits++
	e.send(sh, m.at, com)
	e.schedule(sh, u, m.at+e.commitTO, kCommitTO, uint32(m.c))
}

// handleCommit is the acceptor side of the two-phase swap. The proposal is
// refused (core.Txn.Prepare) if the acceptor's version moved since the
// report (its slot or cache changed under the proposer's feet) or if the
// acceptor is itself locked awaiting an acknowledgment; the refusal is
// advisory, and nothing handles its arrival. Acceptance moves the acceptor
// onto the proposer's slot immediately, acknowledges with the proposer's
// new occupant cache, and notifies the new neighborhood.
func (e *Engine) handleCommit(sh *shardRun, m *msg) {
	v, u := m.to, m.from
	su := m.a
	if !e.txn[v].Prepare(uint32(m.b)) {
		sh.stats.VerRejected++
		e.send(sh, m.at, msg{from: v, to: u, kind: kReject, c: m.c})
		return
	}
	sv := e.slotOf[v]
	// The proposer's new cache: occupants of sv's neighbors, with the slot
	// the acceptor is vacating into (su) now held by v.
	ack := msg{from: v, to: u, kind: kCommitOK, a: sv, c: m.c}
	ack.rlen = uint8(e.deg(sv))
	for i, x := range e.nbrs(sv) {
		if x == su {
			ack.row[i] = v
		} else {
			ack.row[i] = e.occRow[int(v)*maxDeg+i]
		}
	}
	// The acceptor's new cache: occupants of su's neighbors from the
	// proposal, with the proposer's destination (sv) remapped to u.
	nbSU := e.nbrs(su)
	for i, x := range nbSU {
		q := m.row[i]
		if x == sv {
			q = u
		}
		e.occRow[int(v)*maxDeg+i] = q
	}
	e.slotOf[v] = su
	sh.stats.Exchanges++
	e.send(sh, m.at, ack)
	for i := range nbSU {
		q := e.occRow[int(v)*maxDeg+i]
		if q == v || q == u || q < 0 {
			continue
		}
		sh.stats.Notifies++
		e.send(sh, m.at, msg{from: v, to: q, kind: kNotify, a: su})
	}
}

// handleCommitOK completes the proposer's side: take the vacated slot,
// install the pre-remapped occupant cache from the acknowledgment, unlock,
// and notify the new neighborhood. The guard is defensive: a loss-exempt
// ack always beats its own timeout, so it cannot be stale today.
func (e *Engine) handleCommitOK(sh *shardRun, m *msg) {
	u, v := m.to, m.from
	if !e.txn[u].Acked(uint32(m.c)) {
		sh.stats.StaleGuards++
		return
	}
	sv := m.a
	e.slotOf[u] = sv
	d := e.deg(sv)
	copy(e.occRow[int(u)*maxDeg:int(u)*maxDeg+d], m.row[:d])
	for i := 0; i < d; i++ {
		q := e.occRow[int(u)*maxDeg+i]
		if q == u || q == v || q < 0 {
			continue
		}
		sh.stats.Notifies++
		e.send(sh, m.at, msg{from: u, to: q, kind: kNotify, a: sv})
	}
}

// handleNotify updates one believed-occupant entry: if the sender's
// claimed slot is adjacent to the receiver's current slot, the receiver
// now believes the sender holds it. This is also the revival path for
// evicted entries (and their liveness strikes).
func (e *Engine) handleNotify(sh *shardRun, m *msg) {
	q := m.to
	s := e.slotOf[q]
	for i, x := range e.nbrs(s) {
		if x == m.a {
			e.occRow[int(q)*maxDeg+i] = m.from
			e.failCnt[int(q)*maxDeg+i] = 0
		}
	}
}

// evictAfter is the consecutive probe-timeout count that evicts a
// believed-occupant entry: one strike could be a lost walk anywhere along
// the route, two in a row through the same first hop is treated as a dead
// neighbor. kNotify revives evicted entries.
const evictAfter = 2

// handleCrash executes peer p's crash-stop: the tombstone flips, any open
// cycle is forgotten, and from here on handle drops every arrival. Slots
// the corpse claims become vacant at the next snapshot refresh, and
// neighbors discover the death through probe timeouts and evict the
// corpse from their caches.
func (e *Engine) handleCrash(sh *shardRun, m *msg) {
	p := m.to
	e.dead[p] = true
	e.txn[p].Crash()
	sh.stats.Crashes++
}

// handleProbeTO closes a probe cycle whose report never arrived: unlock,
// and strike the first-hop neighbor the walk left through — evicting it
// after evictAfter consecutive strikes. A timer from a completed or
// superseded cycle is a no-op.
func (e *Engine) handleProbeTO(sh *shardRun, m *msg) {
	u := m.to
	if !e.txn[u].WalkTimedOut(uint32(m.c)) {
		return
	}
	sh.stats.ProbeTimeouts++
	idx := int(u)*maxDeg + int(e.probeNbr[u])
	if e.occRow[idx] < 0 {
		return
	}
	e.failCnt[idx]++
	if e.failCnt[idx] >= evictAfter {
		e.occRow[idx] = -1
		e.failCnt[idx] = 0
		sh.stats.Evictions++
	}
}

// handleCommitTO aborts a two-phase swap whose acknowledgment never came,
// the only abort; core.Txn's doc proves that nothing moved on either side.
func (e *Engine) handleCommitTO(sh *shardRun, m *msg) {
	if e.txn[m.to].ProposalTimedOut(uint32(m.c)) {
		sh.stats.CommitTimeouts++
	}
}

package shard

import (
	"fmt"

	"repro/internal/faults"
)

// The protocol handlers: a message-passing PROP-G adapted to the sharded
// engine. One probe cycle is
//
//	kProbe → kWalk×(nhop) → kReport → [kCommit → (kCommitOK | kReject)] → kNotify×deg
//
// with the swap-gain evaluation done on estLat latencies and
// the two-phase commit guarded by per-peer swap versions, so concurrent
// probes over the same slots never tear the slot↔peer bijection. Handlers
// obey one discipline that everything else rests on: they read and write
// ONLY the addressed peer's state (plus immutable world data and message
// payloads). That is what makes parallel shard execution race-free and the
// event stream shard-count invariant.
//
// Fault model (Config.Faults, DESIGN.md §9/§12). Every message's fate —
// lost, duplicated, jittered, dropped by a link outage or the domain
// partition — is decided at SEND time in the sender's shard, as a pure
// function of (seed, directed link, the message's own sequence number, and
// the send time): faults.DeliverStateless for the per-message draws, a
// (seed, link, window) hash for outages, and the routerDomain table for
// the partition cut. No shared mutable state, no draw-order dependence —
// which is why the byte-identical-across-shard-counts contract survives
// fault injection untouched. Crash-stop churn is the one receiver-side
// fault: a dead peer silently drops every arrival, and deadness at any
// arrival time is itself a pure function of the processed event prefix.
//
// Reliable-ack abstraction: kCommitOK is exempt from loss, duplication,
// outages and the partition (jitter still applies). The acceptor moves
// onto the proposer's slot the moment it accepts, so losing the
// acknowledgment would strand a half-executed swap with both peers alive —
// the classic two-generals gap. Exempting the final ack models the
// bounded-retransmit reliability a real implementation gives that one
// message; every other message may drop freely, because a proposer
// timeout then aborts a swap nothing has executed yet (see handleCommitTO
// for the full safety argument).

// send assigns m's ordering key from the sending peer, decides its fate
// under the fault schedule, and delivers it: same-shard messages go
// straight into the local heap, cross-shard ones into the outbox drained
// at the next epoch barrier. A lost message still consumes the sender's
// sequence number, so losses never perturb the ordering keys of later
// traffic.
func (e *Engine) send(sh *shardRun, now float64, m msg) {
	m.origin = m.from
	m.oseq = e.oseq[m.from]
	e.oseq[m.from]++
	d := e.estLat(m.from, m.to)
	m.at = now + d
	if e.faultsOn && !e.inject(sh, now, d, &m) {
		return
	}
	e.post(sh, d, m)
}

// post routes a stamped message to its destination heap or outbox.
// Cross-shard delivery asserts the lookahead bound on the raw physical
// delay d — by construction (a cross-domain estLat is the exact distance,
// never below the floor, and jitter is strictly additive on top of d) the
// panic is unreachable.
func (e *Engine) post(sh *shardRun, d float64, m msg) {
	dst := e.shardOf(m.to)
	if dst == sh.id {
		sh.heap.push(m)
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
// overtake the original); the handlers' pstate/txn guards make duplicates
// harmless.
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
		if del.Reason == faults.ReasonLinkDown {
			sh.stats.LinkDownDrops++
		} else {
			sh.stats.Lost++
		}
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

// schedule enqueues a self-timer for peer p at an absolute time. Timers
// never cross shards.
func (e *Engine) schedule(sh *shardRun, p int32, at float64, k kind) {
	m := msg{at: at, origin: p, oseq: e.oseq[p], from: p, to: p, kind: k}
	e.oseq[p]++
	sh.heap.push(m)
}

// scheduleTO enqueues a timeout self-timer carrying the probe-cycle
// counter it guards. Only called when faults are enabled.
func (e *Engine) scheduleTO(sh *shardRun, p int32, at float64, k kind, cyc int32) {
	m := msg{at: at, origin: p, oseq: e.oseq[p], from: p, to: p, kind: k, c: cyc}
	e.oseq[p]++
	sh.heap.push(m)
}

// handle dispatches one event. Under churn, a dead addressee silently
// drops everything except its own crash event — the receiver-side half of
// the crash-stop model.
func (e *Engine) handle(sh *shardRun, m *msg) {
	if e.faultsOn && e.dead[m.to] && m.kind != kCrash {
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
	case kReject:
		e.handleReject(sh, m)
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

// handleReject unlocks a proposer whose proposal was refused — but only
// on the fault-free path, where the single rejection is authoritative.
// Under faults a rejection is ADVISORY and ignored: a duplicated proposal
// can be simultaneously accepted (the first copy moves the acceptor and
// sends the ack) and version-refused (every later copy), and jitter can
// deliver the refusal before the acknowledgment — unlocking on it would
// strand the half-executed swap. The proposer instead holds its lock
// until the acknowledgment (exempt from drops, always first when the
// swap executed) or the commit timeout, the one abort path whose safety
// is proved (see handleCommitTO).
func (e *Engine) handleReject(sh *shardRun, m *msg) {
	if e.faultsOn {
		return // advisory; VerRejected was counted at the refusing peer
	}
	e.pstate[m.to] = 0
}

// pickNeighbor draws one believed-occupant entry of peer w's current slot
// s, skipping entries evicted for deadness (-1). Fault-free no entry is
// ever evicted, the modulus equals the degree, and the selection is
// bit-identical to the historical draw%deg. ok is false when every entry
// is evicted (the peer is overlay-isolated until a kNotify revives one).
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
// only while before the horizon) and, if the peer is idle, launch a random
// walk to find a swap candidate. A busy peer (mid-probe or mid-commit)
// skips the cycle rather than queueing. Under faults the cycle gets a
// fresh txn counter (stamped into every cycle-scoped message) and a
// timeout covering the walk plus the report leg.
func (e *Engine) handleProbe(sh *shardRun, m *msg) {
	u := m.to
	sh.stats.Probes++
	next := m.at + probeIntervalMS*(0.75+0.5*u01(e.draw(u)))
	if next < e.cfg.HorizonMS {
		e.schedule(sh, u, next, kProbe)
	}
	if e.pstate[u] != 0 {
		return
	}
	su := e.slotOf[u]
	j, target, ok := e.pickNeighbor(u, su)
	if !ok {
		sh.stats.NoNeighbor++
		return
	}
	e.pstate[u] = 1
	var cyc int32
	if e.faultsOn {
		e.txn[u]++
		cyc = int32(e.txn[u])
		e.probeNbr[u] = uint8(j)
	}
	sh.stats.Walks++
	e.send(sh, m.at, msg{from: u, to: target, kind: kWalk, a: u, c: cyc, hops: uint8(walkHops - 1)})
	if e.faultsOn {
		e.scheduleTO(sh, u, m.at+e.probeTO, kProbeTO, cyc)
	}
}

// handleWalk forwards the walk through believed occupants; at the last hop
// the endpoint reports itself (slot, version, occupant cache) to the
// probing peer, echoing the probing peer's cycle counter.
func (e *Engine) handleWalk(sh *shardRun, m *msg) {
	w := m.to
	origin := m.a
	if m.hops == 0 {
		sw := e.slotOf[w]
		rep := msg{from: w, to: origin, kind: kReport, a: sw, b: int32(e.ver[w]), c: m.c}
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
// (-1, faults only) contribute nothing on either side of the comparison.
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
// version-conditioned commit proposal and locks u until the answer (with,
// under faults, a timeout covering the commit round trip).
func (e *Engine) handleReport(sh *shardRun, m *msg) {
	u, v := m.to, m.from
	if e.pstate[u] != 1 {
		return
	}
	if e.faultsOn {
		if e.txn[u] != uint32(m.c) {
			sh.stats.StaleGuards++
			return
		}
		// The cycle round-tripped: clear the liveness strikes against its
		// first-hop neighbor.
		e.failCnt[int(u)*maxDeg+int(e.probeNbr[u])] = 0
	}
	e.pstate[u] = 0
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
	e.pstate[u] = 2
	com := msg{from: u, to: v, kind: kCommit, a: su, b: m.b, c: m.c}
	com.rlen = uint8(len(rowU))
	copy(com.row[:], rowU)
	sh.stats.Commits++
	e.send(sh, m.at, com)
	if e.faultsOn {
		e.scheduleTO(sh, u, m.at+e.commitTO, kCommitTO, m.c)
	}
}

// handleCommit is the acceptor side of the two-phase swap. The proposal is
// refused if the acceptor's version moved since the report (its slot or
// cache changed under the proposer's feet) or if the acceptor is itself
// locked awaiting an acknowledgment. Acceptance moves the acceptor onto
// the proposer's slot immediately, acknowledges with the proposer's new
// occupant cache, and notifies the new neighborhood.
func (e *Engine) handleCommit(sh *shardRun, m *msg) {
	v, u := m.to, m.from
	su := m.a
	if e.pstate[v] == 2 || e.ver[v] != uint32(m.b) {
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
	e.ver[v]++
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
// and notify the new neighborhood. The guard is defensive: the ack is
// exempt from loss and duplication and always beats its own timeout, so
// under the current schedule it cannot be stale — but the engine refuses
// to rely on that across future fault-model extensions.
func (e *Engine) handleCommitOK(sh *shardRun, m *msg) {
	u, v := m.to, m.from
	if e.faultsOn && (e.pstate[u] != 2 || e.txn[u] != uint32(m.c)) {
		sh.stats.StaleGuards++
		return
	}
	sv := m.a
	e.slotOf[u] = sv
	e.ver[u]++
	e.pstate[u] = 0
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
// now believes the sender holds it. Under faults this is also the revival
// path for evicted entries (and their liveness strikes).
func (e *Engine) handleNotify(sh *shardRun, m *msg) {
	q := m.to
	s := e.slotOf[q]
	for i, x := range e.nbrs(s) {
		if x == m.a {
			e.occRow[int(q)*maxDeg+i] = m.from
			if e.faultsOn {
				e.failCnt[int(q)*maxDeg+i] = 0
			}
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
	e.pstate[p] = 0
	sh.stats.Crashes++
}

// handleProbeTO closes a probe cycle whose report never arrived: unlock,
// and strike the first-hop neighbor the walk left through — evicting it
// after evictAfter consecutive strikes. The txn guard makes timers from
// completed or superseded cycles no-ops.
func (e *Engine) handleProbeTO(sh *shardRun, m *msg) {
	u := m.to
	if e.pstate[u] != 1 || e.txn[u] != uint32(m.c) {
		return
	}
	e.pstate[u] = 0
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

// handleCommitTO aborts a two-phase swap whose acknowledgment never came
// — under faults, the ONLY abort path (rejections are advisory, see
// handleReject).
//
// Safety argument. The timeout is scheduled commitTO = 2·maxLeg + 1 ms
// after the proposal, where maxLeg bounds every one-way delay including
// jitter. Events are processed in arrival order, so if the acceptor
// executed the swap, its acknowledgment — exempt from every drop — was
// handled strictly before this timer fires, cleared pstate, and the txn
// guard below makes the timer a no-op. A timer that finds its cycle still
// open therefore proves the swap did NOT execute: the proposal was
// dropped in flight, the acceptor was dead on arrival, or the acceptor
// refused (every copy of a duplicated proposal after the first is
// version-refused, and the refusals may be dropped, reordered, or
// ignored — it does not matter). In every case nothing moved on either
// side, and resetting the proposer's lock is exact — no slot state to
// roll back, no counterpart to inform. This is the version-guarded abort
// that keeps the alive-peer slot claims injective when a counterpart
// crashes mid-commit.
func (e *Engine) handleCommitTO(sh *shardRun, m *msg) {
	u := m.to
	if e.pstate[u] != 2 || e.txn[u] != uint32(m.c) {
		return
	}
	e.pstate[u] = 0
	sh.stats.CommitTimeouts++
}

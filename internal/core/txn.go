package core

// Txn is one peer's side of the version-guarded slot swap that ends a §3.2
// exchange between peers that share no memory:
//
//	Open → walk → Reported → Propose → (the partner's Prepare) → Acked
//
// The sharded engine drives it directly; Cycle carries it, and Protocol's
// Commit step has the partner Prepare each arriving copy of a proposal.
// It is the acceptor half of the probe cycle, a sans-IO machine like Cycle:
// a driver feeds it one input at a time and acts on the answer, and it has
// no clock, message, RNG or counter. It holds the peer's swap version (the
// swaps it executed, which a proposal names) and its open cycle: a number,
// new with every cycle so that a reply or timer of an earlier cycle is
// recognised, and a phase (idle, walking, proposing). It fits 8 bytes.
//
// Only a timeout aborts. A refusal is advisory: a duplicated proposal can
// be accepted (its first copy) and refused (every later copy) at once, and
// the refusal may overtake the acknowledgment, so unlocking on it could
// strand a half-executed swap. The driver arms ProposalTimedOut more than
// two worst-case one-way legs (jitter included) after the proposal and
// handles events in arrival order. The one assumption is that the
// acknowledgment is never lost or duplicated, the bounded retransmit a
// real implementation gives that one message. The partner moves the moment
// it accepts, so if it accepted, Acked closed the cycle first; a timeout
// that finds the proposal open proves the swap did not execute (the
// proposal was dropped, the partner dead, or it refused). Nothing moved on
// either side, so unlocking is exact — no slot to roll back, no partner to
// tell — and live slot claims stay injective when a partner crashes. For a
// synchronous driver such as Protocol, whose proposal leg resends within
// one step and has no copy left in flight once its budget runs out, the
// timing half holds trivially.
type Txn struct {
	ver   uint32   // swaps executed
	cycle uint16   // the open or last cycle's number, wrapping
	phase txnPhase // where that cycle stands
}

type txnPhase uint8

const (
	txnIdle      txnPhase = iota // Open, Prepare
	txnWalking                   // Reported, WalkTimedOut
	txnProposing                 // Acked, ProposalTimedOut
)

// Answer is what Reported makes of a report.
type Answer uint8

const (
	Ignored Answer = iota // no walk is out: drop it
	Stale                 // the walk out is another cycle's: drop it
	Taken                 // the walk is in and the peer idle: evaluate, maybe Propose
)

// Version is the peer's swap version, which a report carries and a
// proposal names.
func (t *Txn) Version() uint32 { return t.ver }

// Idle reports whether no cycle is open.
func (t *Txn) Idle() bool { return t.phase == txnIdle }

// Open starts cycle c, whose walk the driver sends out. It is refused while
// a cycle is open: a busy peer skips its probe.
func (t *Txn) Open() (c uint32, ok bool) {
	if t.phase != txnIdle {
		return 0, false
	}
	t.cycle++
	t.phase = txnWalking
	return uint32(t.cycle), true
}

// Reported is the walk's report for cycle c; Taken closes the walk.
func (t *Txn) Reported(c uint32) Answer {
	switch {
	case t.phase != txnWalking:
		return Ignored
	case uint32(t.cycle) != c:
		return Stale
	}
	t.phase = txnIdle
	return Taken
}

// Propose locks the peer on a proposal for cycle c, whose report it just
// took, until Acked or ProposalTimedOut. It is refused otherwise.
func (t *Txn) Propose(c uint32) bool {
	if t.phase != txnIdle || uint32(t.cycle) != c {
		return false
	}
	t.phase = txnProposing
	return true
}

// Prepare is a partner's proposal naming version v. It is refused while the
// peer is proposing itself or once its version moved past v, so a second
// copy of an accepted proposal is refused; acceptance bumps the version.
func (t *Txn) Prepare(v uint32) bool {
	if t.phase == txnProposing || t.ver != v {
		return false
	}
	t.ver++
	return true
}

// Acked is the partner's acknowledgment of cycle c's proposal: the swap is
// complete and the version bumps. It is false, and changes nothing, unless
// that proposal is open.
func (t *Txn) Acked(c uint32) bool {
	if !t.end(c, txnProposing) {
		return false
	}
	t.ver++
	return true
}

// WalkTimedOut is cycle c's walk timeout: it aborts the cycle if the walk
// is still out.
func (t *Txn) WalkTimedOut(c uint32) bool { return t.end(c, txnWalking) }

// ProposalTimedOut is cycle c's proposal timeout: it aborts the cycle if the
// proposal is still open.
func (t *Txn) ProposalTimedOut(c uint32) bool { return t.end(c, txnProposing) }

// end closes cycle c if it stands in phase p.
func (t *Txn) end(c uint32, p txnPhase) bool {
	if t.phase != p || uint32(t.cycle) != c {
		return false
	}
	t.phase = txnIdle
	return true
}

// Crash forgets the open cycle; the version and cycle number stay.
func (t *Txn) Crash() { t.phase = txnIdle }

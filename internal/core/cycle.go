package core

import (
	"repro/internal/overlay"
	"repro/internal/rng"
)

// Cycle is one peer's state in the §3.2 probe cycle — probe, walk nhops,
// evaluate Var, exchange or not, back off — run as a sans-IO machine: a
// driver feeds it one input at a time and gets one Step back, which says
// what to do next. The machine has no clock, lock, message or counter, and
// draws no randomness beyond what Reconcile, FirstHop, Plan, Judge and
// Finish draw, in that order. It holds the kernel's Peer, the peer's swap
// transaction Txn — whose cycle number, new with every cycle, a retransmit
// names, so that one armed for an abandoned cycle is absorbed — and the
// open cycle's phase and lost walk transmissions. Fired opens the Txn,
// Reached reports to it, Measured proposes and Committed acks or times the
// proposal out; a driver's partner side Prepares on the partner's Cycle.
type Cycle struct {
	Peer
	Txn
	attempt uint8 // walk transmissions lost in this cycle
	phase   phase
}

// phase is where a cycle stands: which input it waits for.
type phase uint8

const (
	idle       phase = iota // between cycles: Fired
	walking                 // WalkStuck, WalkLost or Reached
	waiting                 // Retransmit
	measuring               // Measured
	committing              // Committed
)

// Round is the evaluation a driver has in flight, with the parameters,
// random stream and scratch the cycle plans into. A driver keeps one round
// per evaluation that may be pending at once — Protocol one in all, since
// its evaluations never span events, a propnode agent one each — rather
// than one per peer, which would grow every peer's state by an Evaluation.
type Round struct {
	V   int        // the partner the walk reached, -1 if none
	Ev  Evaluation // the planned exchange, zero if none was planned
	Var float64    // Ev's variation, zero before Judge ran

	cfg *Config
	m   int
	r   *rng.Rand
	sc  *overlay.Scratch
}

// NewRound returns a round that plans under cfg and trade size m, drawing
// from r and listing host pairs into sc; sc.RTT is the batch Measured judges.
func NewRound(cfg *Config, m int, r *rng.Rand, sc *overlay.Scratch) Round {
	return Round{V: -1, cfg: cfg, m: m, r: r, sc: sc}
}

// StepKind is what a Step asks the driver to do, and which input it feeds
// the cycle afterwards.
type StepKind uint8

const (
	Ignore  StepKind = iota // the input was out of phase or stale: do nothing
	Walk                    // walk nhops through first hop Step.Hop: WalkStuck, WalkLost or Reached
	Resend                  // wait out attempt Step.Attempt's back-off: Retransmit(Step.Txn)
	Measure                 // measure the round's listed host pairs: Measured
	Commit                  // execute the round's Evaluation: Committed
	End                     // the cycle is over, for Step.Reason; next one in Step.Delay ms
	Rearm                   // a churn reset: the next cycle in Step.Delay ms
)

// Reason is how a cycle ended; those before PartnerGone end it before the
// walk reached a partner.
type Reason uint8

const (
	NoFirstHop  Reason = iota // the neighborQ was empty
	WalkFailed                // the walk dead-ended, or random probing found no partner
	WalkLost                  // 1 + maxRetries transmissions of the walk were lost
	PartnerGone               // the pair was no longer evaluable when the walk returned
	NoTrade                   // PROP-O found no legal trade
	Poisoned                  // a measurement failed, so Var was never trusted
	BelowMinVar               // Var was not above MIN_VAR (a NaN Var never is)
	Refused                   // the commit was refused, or its proposal's retransmits ran out
	Exchanged                 // the exchange executed
	NumReasons                // the number of reasons
)

// Step is the machine's answer to one input; Finish has run iff Kind is End.
type Step struct {
	Kind    StepKind
	Reason  Reason  // End
	Hop     int     // Walk
	Attempt int     // Resend
	Txn     uint32  // Resend: the Txn cycle it was armed for
	Delay   float64 // End, Rearm
}

// Fired is the peer's probe timer: it reconciles the neighborQ with nbrs,
// the peer's current neighbors, and opens a cycle through its first hop.
func (c *Cycle) Fired(rd *Round, nbrs []int) Step {
	if c.phase != idle {
		return Step{Kind: Ignore}
	}
	c.Reconcile(nbrs)
	c.Open()
	c.attempt = 0
	s, ok := c.FirstHop()
	if !ok {
		return c.end(rd, NoFirstHop)
	}
	c.phase = walking
	return Step{Kind: Walk, Hop: s}
}

// WalkStuck reports a walk that found no partner.
func (c *Cycle) WalkStuck(rd *Round) Step {
	if c.phase != walking {
		return Step{Kind: Ignore}
	}
	return c.end(rd, WalkFailed)
}

// WalkLost reports a walk transmission whose messages were lost: resend
// after a back-off while the retry budget lasts.
func (c *Cycle) WalkLost(rd *Round) Step {
	if c.phase != walking {
		return Step{Kind: Ignore}
	}
	if c.attempt >= maxRetries {
		return c.end(rd, WalkLost)
	}
	c.attempt, c.phase = c.attempt+1, waiting
	return Step{Kind: Resend, Attempt: int(c.attempt) - 1, Txn: uint32(c.cycle)}
}

// Retransmit is a Resend's back-off expiring: walk again through the same
// first hop, unless the cycle it was armed for is gone.
func (c *Cycle) Retransmit(txn uint32) Step {
	if c.phase != waiting || txn != uint32(c.cycle) {
		return Step{Kind: Ignore}
	}
	c.phase = walking
	return Step{Kind: Walk, Hop: c.hop - 1}
}

// Reached reports the walk's partner v and its path from u, the peer's
// slot as the driver sees it now (-1 if the peer holds none): plan the
// exchange into rd and have its host pairs measured.
func (c *Cycle) Reached(rd *Round, o *overlay.Overlay, u, v int, path []int) Step {
	if c.phase != walking {
		return Step{Kind: Ignore}
	}
	c.Reported(uint32(c.cycle))
	rd.V, rd.Ev, rd.Var = v, Evaluation{}, 0
	if u == v || !o.Alive(u) || !o.Alive(v) {
		return c.end(rd, PartnerGone)
	}
	ev, ok := Plan(o, rd.cfg.Policy, u, v, path, rd.m, rd.r, rd.sc)
	if rd.Ev = ev; !ok {
		return c.end(rd, NoTrade)
	}
	c.phase = measuring
	return Step{Kind: Measure}
}

// Measured reports that the first measured RTTs of rd's batch were filled;
// fewer than listed poisons the evaluation.
func (c *Cycle) Measured(rd *Round, measured int) Step {
	if c.phase != measuring {
		return Step{Kind: Ignore}
	}
	var why Reason
	if why, rd.Var = rd.Ev.Judge(rd.sc.RTT, measured, rd.cfg.MinVar); why != Exchanged {
		return c.end(rd, why)
	}
	c.Propose(uint32(c.cycle))
	c.phase = committing
	return Step{Kind: Commit}
}

// Committed reports whether rd's Evaluation executed: the partner's
// acknowledgment, or the proposal's timeout.
func (c *Cycle) Committed(rd *Round, ok bool) Step {
	if c.phase != committing {
		return Step{Kind: Ignore}
	}
	if !ok {
		c.ProposalTimedOut(uint32(c.cycle))
		return c.end(rd, Refused)
	}
	c.Acked(uint32(c.cycle))
	return c.end(rd, Exchanged)
}

// Reset applies the §3.2 churn rule: the timer returns to INIT_TIMER, and a
// cycle in flight is abandoned without Finish — its Txn forgets it, and its
// pending retransmit, if any, will be Ignored.
func (c *Cycle) Reset(rd *Round) Step {
	c.Crash()
	c.phase = idle
	c.TimerMS = rd.cfg.InitTimerMS
	return Step{Kind: Rearm, Delay: c.TimerMS}
}

// end closes the cycle for why: Finish, and a round that names no partner
// and a Txn whose walk timed out when the walk reached none.
func (c *Cycle) end(rd *Round, why Reason) Step {
	if why < PartnerGone {
		c.WalkTimedOut(uint32(c.cycle))
		rd.V, rd.Ev, rd.Var = -1, Evaluation{}, 0
	}
	c.phase = idle
	return Step{Kind: End, Reason: why, Delay: c.Finish(why == Exchanged, *rd.cfg)}
}

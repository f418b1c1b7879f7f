// Package core implements the paper's contribution: the PROP family of
// Peer-exchange Routing Optimization Protocols (PROP-G and PROP-O).
//
// Every peer runs the same loop (§3.2). After joining it enters a warm-up
// phase: it probes its neighbors to learn Σ d(u,i), then every `timer`
// interval contacts a node v exactly nhops away via a TTL random walk whose
// first hop is drawn from a priority queue (neighborQ). The pair evaluates
//
//	Var = Σ_{N_t0(u)} d(u,i) + Σ_{N_t0(v)} d(v,i)
//	    − Σ_{N_t1(u)} d(u,i) − Σ_{N_t1(v)} d(v,i)
//
// and executes the peer-exchange iff Var > MIN_VAR: under PROP-G the two
// peers swap overlay positions (all neighbors, and node identifiers in DHT
// systems — a host swap in the slot model); under PROP-O they trade exactly
// m neighbors each, never ones on the walk path, preserving both degrees.
// After MAX_INIT_TRIAL probes the peer enters maintenance: successful
// first-hops are re-prioritized to be probed again soon, failures fall to
// the queue tail, and the probe timer follows a Markov back-off — doubled
// on failure, reset to INIT_TIMER on success or once it exceeds MAX_TIMER.
// Churn resets the timer and enqueues new neighbors at the queue front.
//
// Key types: Protocol (one running instance over an overlay), Config, and
// Policy (PROPG/PROPO). DESIGN.md §3 records every protocol constant and
// the reconstruction of the paper's lost digits.
//
// Probe cycles are scheduled through the event.Clock seam rather than the
// sim engine directly, so the same protocol code runs on simulated time in
// experiments and on wall time in the live runtime (DESIGN.md §10).
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// Policy selects the exchange rule.
type Policy int

const (
	// PROPG exchanges all neighbors (a position/identifier swap).
	PROPG Policy = iota
	// PROPO exchanges exactly m neighbors per side, preserving degrees.
	PROPO
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PROPG:
		return "PROP-G"
	case PROPO:
		return "PROP-O"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config holds the protocol parameters of §3.2 and §5.1.
type Config struct {
	// Policy selects PROP-G or PROP-O.
	Policy Policy
	// NHops is the TTL of the probing random walk. The paper's default and
	// recommendation is 2 ("nhop = 2 may be a better choice").
	NHops int
	// RandomProbe replaces the TTL walk with a uniformly random partner
	// ("instead of TTL packets, a random node is selected as the probing
	// target") — the impractical-but-instructive baseline of Fig. 5/6(a).
	RandomProbe bool
	// M is the PROP-O exchange size. Zero means "use δ(G), the overlay's
	// minimum degree, at start time" — the paper's default.
	M int
	// MinVar is the exchange threshold; §4.2 derives MIN_VAR = 0.
	MinVar float64
	// InitTimerMS is INIT_TIMER (paper: 1 minute = 60000 ms).
	InitTimerMS float64
	// MaxInitTrials is MAX_INIT_TRIAL, the warm-up length (paper: "less
	// than ten" — we use 10).
	MaxInitTrials int
	// MaxTimerFactor caps the Markov back-off: MAX_TIMER =
	// MaxTimerFactor × INIT_TIMER (paper: 2^5 = 32, "at most five times of
	// suspending").
	MaxTimerFactor float64
	// MeasurementNoise, when positive, perturbs every probe RTT used in the
	// Var computation by a multiplicative Gaussian factor (1 + σ·N(0,1)),
	// clamped at zero. The topology change itself always applies to ground
	// truth — only the decision is noisy, as in a real deployment. Zero
	// (the default, and the paper's setting) means exact measurements.
	MeasurementNoise float64

	// The remaining knobs govern retransmission (DESIGN.md §9) and only
	// matter when an injector attached via AttachFaults loses messages.

	// ProbeTimeoutMS is how long a peer waits for a probe step to be answered
	// before declaring the message lost and retransmitting. Zero selects the
	// default (5000 ms — generous against the transit-stub RTT spread).
	ProbeTimeoutMS float64
	// MaxRetries bounds retransmissions per probe step. Zero selects the
	// default (3); after the budget is exhausted the probe cycle fails and
	// falls back to the Markov back-off.
	MaxRetries int
	// BackoffJitter desynchronizes retransmit timers: each retransmit delay
	// is scaled by (1 + BackoffJitter·U[0,1)). Zero means no jitter; the
	// default config uses 0.1.
	BackoffJitter float64
}

// DefaultConfig returns the paper's parameterization for the given policy.
func DefaultConfig(policy Policy) Config {
	return Config{
		Policy:         policy,
		NHops:          2,
		MinVar:         0,
		InitTimerMS:    60000,
		MaxInitTrials:  10,
		MaxTimerFactor: 32,
		ProbeTimeoutMS: 5000,
		MaxRetries:     3,
		BackoffJitter:  0.1,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Policy != PROPG && c.Policy != PROPO:
		return fmt.Errorf("core: unknown policy %d", int(c.Policy))
	case !c.RandomProbe && c.NHops < 1:
		return fmt.Errorf("core: NHops = %d, want >= 1 (or RandomProbe)", c.NHops)
	case c.M < 0:
		return fmt.Errorf("core: M = %d, want >= 0", c.M)
	case c.InitTimerMS <= 0:
		return fmt.Errorf("core: InitTimerMS = %v, want > 0", c.InitTimerMS)
	case c.MaxInitTrials < 1:
		return fmt.Errorf("core: MaxInitTrials = %d, want >= 1", c.MaxInitTrials)
	case c.MaxTimerFactor < 1:
		return fmt.Errorf("core: MaxTimerFactor = %v, want >= 1", c.MaxTimerFactor)
	case c.MeasurementNoise < 0:
		return fmt.Errorf("core: MeasurementNoise = %v, want >= 0", c.MeasurementNoise)
	case c.ProbeTimeoutMS < 0:
		return fmt.Errorf("core: ProbeTimeoutMS = %v, want >= 0 (0 = default)", c.ProbeTimeoutMS)
	case c.MaxRetries < 0:
		return fmt.Errorf("core: MaxRetries = %d, want >= 0 (0 = default)", c.MaxRetries)
	case c.BackoffJitter < 0:
		return fmt.Errorf("core: BackoffJitter = %v, want >= 0", c.BackoffJitter)
	}
	return nil
}

// The peer kernel. Everything below up to ExchangeEvent is the §3.2 per-peer
// protocol with no clock, lock, counter or message in it: the neighborQ, the
// first-hop standing rule, the Markov timer, trade selection and the
// evaluate → gate → commit step. Protocol (this package, on event.Clock) and
// propnode.Runtime (goroutines over a transport) are drivers of it: they own
// I/O, locking and counting, and nothing else.

// QueueEntry is one neighborQ entry: a neighbor slot and its standing.
// Lower Prio is probed sooner; ties go to the earlier arrival.
type QueueEntry struct {
	Neighbor int
	Prio     int
	seq      int // arrival order, the FIFO tie-break
}

// Peer is one peer's protocol state: the neighborQ, the number of probe
// cycles started (the warm-up gate) and the probe timer. A driver sets
// TimerMS to INIT_TIMER when the peer registers and again whenever its
// neighborhood churns (§3.2); every other change goes through the methods.
type Peer struct {
	Queue   []QueueEntry
	Trials  int
	TimerMS float64

	seq int
	hop int // 1 + index of the first hop of the cycle in flight; 0 = none
}

// Init fills the neighborQ with a random permutation of nbrs ("initialized
// with a random sequence … so each neighbor has an equal probability to be
// probed"). nbrs is permuted in place.
func (p *Peer) Init(nbrs []int, r *rng.Rand) {
	r.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
	p.Queue = p.Queue[:0]
	for _, nb := range nbrs {
		p.Queue = append(p.Queue, QueueEntry{Neighbor: nb, seq: p.seq})
		p.seq++
	}
}

// Reconcile drops entries that are no longer in nbrs (the peer's current
// neighbors, each listed once) and inserts new neighbors at the front, in
// the order nbrs lists them (minimum priority — probed earliest, per §3.2's
// churn rule). Membership is a scan, not a set: lists are degree-sized, and
// on an unchanged neighborhood the call is one pass that writes nothing new.
func (p *Peer) Reconcile(nbrs []int) {
	kept := p.Queue[:0]
	minPrio := 0
	for _, qe := range p.Queue {
		if slices.Contains(nbrs, qe.Neighbor) {
			kept = append(kept, qe)
			if qe.Prio < minPrio {
				minPrio = qe.Prio
			}
		}
	}
	p.Queue = kept
	if len(kept) == len(nbrs) {
		return // every neighbor already queued
	}
	for _, nb := range nbrs {
		if !slices.ContainsFunc(kept, func(qe QueueEntry) bool { return qe.Neighbor == nb }) {
			p.Queue = append(p.Queue, QueueEntry{Neighbor: nb, Prio: minPrio - 1, seq: p.seq})
			p.seq++
		}
	}
}

// FirstHop opens a probe cycle: it counts the trial and returns the
// minimum-priority neighbor as the walk's first hop. ok is false when the
// queue is empty. The cycle ends with Finish, and the queue must not be
// reconciled in between.
func (p *Peer) FirstHop() (neighbor int, ok bool) {
	p.Trials++
	best := -1
	for i, qe := range p.Queue {
		if best < 0 || qe.Prio < p.Queue[best].Prio ||
			(qe.Prio == p.Queue[best].Prio && qe.seq < p.Queue[best].seq) {
			best = i
		}
	}
	p.hop = best + 1
	if best < 0 {
		return 0, false
	}
	return p.Queue[best].Neighbor, true
}

// maxPrio returns the maximum priority in the queue (0 if empty).
func (p *Peer) maxPrio() int {
	max := 0
	for _, qe := range p.Queue {
		if qe.Prio > max {
			max = qe.Prio
		}
	}
	return max
}

// Finish closes the probe cycle FirstHop opened and returns the delay to
// the next one. During the first MaxInitTrials cycles the first hop rotates
// to the queue tail and the timer stays at INIT_TIMER, so every neighbor
// gets a turn. Afterwards a successful first hop moves up one priority and
// the timer resets; a failed one falls to the tail and the timer doubles,
// resetting once it passes MaxTimerFactor × INIT_TIMER.
func (p *Peer) Finish(success bool, cfg Config) (nextTimerMS float64) {
	warmUp := p.Trials <= cfg.MaxInitTrials
	if p.hop > 0 {
		if success && !warmUp {
			p.Queue[p.hop-1].Prio--
		} else {
			p.Queue[p.hop-1].Prio = p.maxPrio() + 1
		}
		p.hop = 0
	}
	if success || warmUp {
		p.TimerMS = cfg.InitTimerMS
	} else {
		p.TimerMS *= 2
		if p.TimerMS > cfg.MaxTimerFactor*cfg.InitTimerMS {
			p.TimerMS = cfg.InitTimerMS
		}
	}
	return p.TimerMS
}

// SelectTrade picks up to m neighbors from each side of a PROP-O exchange
// between u and v, honoring the Theorem 1 constraints. Per §3.2 the peers
// exchange address lists of "arbitrary m neighbors" — the selection is
// random, not greedy; the Var test afterwards decides whether the candidate
// trade is worth executing. Both sides return equally many neighbors
// (possibly fewer than m when eligibility is scarce); empty slices mean no
// legal trade exists. The lists live in sc (Nbrs and Cand).
func SelectTrade(o *overlay.Overlay, u, v int, path []int, m int, r *rng.Rand, sc *overlay.Scratch) (give, take []int) {
	eligibleFrom := func(buf []int, from, to int) []int {
		buf = o.Logical.AppendNeighbors(buf[:0], from)
		out := buf[:0]
		for _, x := range buf {
			if x == to || x == from || slices.Contains(path, x) || !o.Alive(x) {
				continue
			}
			if o.Logical.HasEdge(to, x) {
				continue
			}
			out = append(out, x)
		}
		return out
	}
	sc.Nbrs = eligibleFrom(sc.Nbrs, u, v)
	sc.Cand = eligibleFrom(sc.Cand, v, u)
	candU, candV := sc.Nbrs, sc.Cand
	if len(candU) < m {
		m = len(candU)
	}
	if len(candV) < m {
		m = len(candV)
	}
	if m == 0 {
		return nil, nil
	}
	pick := func(cands []int) []int {
		r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		out := cands[:m]
		sort.Ints(out)
		return out
	}
	return pick(candU), pick(candV)
}

// Outcome is how one Exchange call ended.
type Outcome int

const (
	// Rejected: Var <= MIN_VAR, no legal trade existed, or the overlay
	// refused the commit. Nothing changed.
	Rejected Outcome = iota
	// Poisoned: a measurement failed, so Var was never trusted and nothing
	// changed — an exchange must never execute on incomplete data, or a
	// half-evaluated Var could corrupt the slot↔host mapping.
	Poisoned
	// Committed: the exchange executed.
	Committed
)

// MeasureFunc is the driver's side of an evaluation: it fills rtt[k] with
// the measured RTT between the hosts of pairs[k], in order, and returns how
// many it measured — len(pairs), or the index of the first pair it could not
// measure, past which it attempts none.
type MeasureFunc func(pairs [][2]int, rtt []float64) (measured int)

// Exchange evaluates Var for the (u,v) pair from measured host-to-host
// RTTs and executes the exchange iff Var > minVar: a host swap under PROPG,
// a trade of up to m neighbors per side (never ones on path) under PROPO.
// The evaluation's host pairs are listed into sc and handed to measure as
// one batch; a batch cut short poisons the evaluation. moved counts the
// neighbor entries the exchange touches — |N(u)|+|N(v)| under PROPG, both
// trade lists under PROPO — which is the measure messages charged and, on
// commit, the notifications owed (§4.3), not the RTTs taken (DESIGN.md §3);
// it is 0 when no legal trade existed. sc is the calling driver's scratch;
// path may be its Path.
func Exchange(o *overlay.Overlay, policy Policy, u, v int, path []int, m int, minVar float64,
	measure MeasureFunc, r *rng.Rand, sc *overlay.Scratch) (out Outcome, variation float64, moved int) {
	var fold func(rtt []float64) float64
	var commit func() error
	switch policy {
	case PROPG:
		moved = o.Degree(u) + o.Degree(v)
		o.SwapPairs(u, v, sc)
		fold = overlay.SwapVar
		commit = func() error { return o.SwapHosts(u, v) }
	case PROPO:
		give, take := SelectTrade(o, u, v, path, m, r, sc)
		if len(give) == 0 {
			return Rejected, 0, 0
		}
		moved = len(give) + len(take)
		o.TradePairs(u, v, give, take, sc)
		fold = overlay.TradeVar
		commit = func() error { return o.ExchangeNeighbors(u, v, give, take, path) }
	default:
		return Rejected, 0, 0
	}
	measured := measure(sc.Pairs, sc.RTT)
	clear(sc.RTT[measured:]) // a poisoned Var counts what was not measured as 0
	variation = fold(sc.RTT)
	switch {
	case measured < len(sc.Pairs):
		return Poisoned, variation, moved
	case variation <= minVar || commit() != nil:
		return Rejected, variation, moved
	}
	return Committed, variation, moved
}

// ExchangeEvent records one executed peer-exchange for tracing.
type ExchangeEvent struct {
	At   event.Time
	U, V int
	Var  float64
	// Moved counts the neighbors exchanged per side (PROP-O) or the full
	// neighbor-set sizes (PROP-G, |N(u)|+|N(v)|).
	Moved int
}

// ProbeEvent records one timer firing (§3.2 probe) for tracing: the prober,
// the partner the walk reached (-1 if the walk failed), and whether the
// probe ended in an executed exchange.
type ProbeEvent struct {
	At        event.Time
	U         int
	Partner   int
	Exchanged bool
}

// Protocol runs PROP over one overlay inside one event engine.
type Protocol struct {
	// O is the overlay being optimized.
	O *overlay.Overlay
	// Counters tallies message overhead (§4.3).
	Counters metrics.Counters
	// Trace, if non-nil, receives every executed exchange.
	Trace func(ExchangeEvent)
	// Probe, if non-nil, receives every probe attempt (the trace recorder's
	// finest-grained protocol event).
	Probe func(ProbeEvent)

	cfg    Config
	r      *rng.Rand
	m      int              // resolved PROP-O exchange size
	nodes  []*nodeState     // by slot; nil = not under protocol control
	count  int              // non-nil entries of nodes
	faults *faults.Injector // nil = every message arrives clean
	// sc holds the buffers of the probe cycle in flight. Cycles never overlap
	// (one clock, handlers run one at a time), so one set serves every node.
	sc overlay.Scratch
}

// nodeState is the sequential driver's per-slot bookkeeping around the
// kernel's Peer: the pending timer and the retransmit-chain guard.
type nodeState struct {
	Peer
	token event.Canceler
	fire  func() // the node's timer callback, built once at register
	// epoch invalidates in-flight retransmit chains: it is bumped whenever
	// the node's situation changes underneath a pending retransmit timer
	// (neighbor churn, repair, death), so a stale timer firing later is
	// recognized and absorbed instead of starting a second probe cycle.
	epoch int
}

// New creates a protocol instance over o. The overlay should already be
// built (its peers joined "based on a random or DHT based assignment").
func New(o *overlay.Overlay, cfg Config, r *rng.Rand) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if o == nil {
		return nil, fmt.Errorf("core: nil overlay")
	}
	p := &Protocol{
		O:     o,
		cfg:   cfg,
		r:     r,
		nodes: make([]*nodeState, o.NumSlots()),
	}
	p.m = cfg.M
	if p.m == 0 {
		p.m = o.Logical.MinDegree()
		if p.m < 1 {
			p.m = 1
		}
	}
	// Resolve fault-path defaults; inert until AttachFaults.
	if p.cfg.ProbeTimeoutMS == 0 {
		p.cfg.ProbeTimeoutMS = 5000
	}
	if p.cfg.MaxRetries == 0 {
		p.cfg.MaxRetries = 3
	}
	return p, nil
}

// AttachFaults runs the protocol's messages past inj: losses trigger
// timeouts and bounded retransmission with exponential back-off + jitter,
// duplicated responses are dropped by their sequence guard, and each probe
// cycle starts with liveness eviction of crashed neighbors. A nil injector —
// or never calling AttachFaults — takes the same code path with every
// message delivered clean: a nil injector consumes no randomness, so the
// events scheduled and the RNG stream are those of pre-fault builds.
func (p *Protocol) AttachFaults(inj *faults.Injector) { p.faults = inj }

// M returns the resolved PROP-O exchange size.
func (p *Protocol) M() int { return p.m }

// Start registers every live slot with the clock. Each node's first probe
// is staggered uniformly over one INIT_TIMER interval so that the warm-up
// phase is not synchronized. The clock is the sim engine in experiments and
// an event.WallClock in the live runtime (DESIGN.md §10); the protocol never
// looks past the Clock interface.
func (p *Protocol) Start(e event.Clock) {
	for _, slot := range p.O.AliveSlots() {
		p.register(e, slot)
	}
}

// register creates protocol state for slot and schedules its first probe.
func (p *Protocol) register(e event.Clock, slot int) {
	st := &nodeState{Peer: Peer{TimerMS: p.cfg.InitTimerMS}}
	st.fire = func() { p.probe(e, slot) }
	st.Init(p.O.Neighbors(slot), p.r)
	for len(p.nodes) <= slot {
		p.nodes = append(p.nodes, nil)
	}
	p.nodes[slot] = st
	p.count++
	delay := event.Time(p.r.Float64() * p.cfg.InitTimerMS)
	st.token = e.Schedule(delay, st.fire)
}

// node returns slot's protocol state, or nil if it is not registered.
func (p *Protocol) node(slot int) *nodeState {
	if slot < 0 || slot >= len(p.nodes) {
		return nil
	}
	return p.nodes[slot]
}

// unregister cancels slot's pending probe, invalidates any in-flight
// retransmit chain and forgets the node.
func (p *Protocol) unregister(slot int) {
	if st := p.node(slot); st != nil {
		st.token.Cancel()
		st.epoch++
		p.nodes[slot] = nil
		p.count--
	}
}

// AddNode brings a newly joined slot under protocol control (churn). The
// slot must already be wired into the overlay.
func (p *Protocol) AddNode(e event.Clock, slot int) error {
	if !p.O.Alive(slot) {
		return fmt.Errorf("core: AddNode(%d) on dead slot", slot)
	}
	if p.node(slot) != nil {
		return fmt.Errorf("core: slot %d already registered", slot)
	}
	p.register(e, slot)
	// §3.2: neighbors of an arriving peer reset their timers and probe the
	// newcomer early.
	for _, nb := range p.O.Neighbors(slot) {
		p.onNeighborChange(e, nb)
	}
	return nil
}

// RemoveNode withdraws a departing slot (churn): its pending probe is
// cancelled and its former neighbors reset their timers. Call after the
// overlay repair has rewired the survivors.
func (p *Protocol) RemoveNode(e event.Clock, slot int, formerNeighbors []int) {
	p.unregister(slot)
	for _, nb := range formerNeighbors {
		p.onNeighborChange(e, nb)
	}
}

// CrashNode withdraws a slot that died crash-stop: its pending probe (and
// any in-flight retransmit chain) is invalidated, but — unlike RemoveNode —
// no survivor is notified. Neighbors keep stale queue entries until their
// own liveness eviction or a repair pass (NeighborsChanged) catches up,
// which is exactly the asymmetry between a graceful leave and a crash.
func (p *Protocol) CrashNode(slot int) { p.unregister(slot) }

// NeighborsChanged tells the protocol that an external repair pass (e.g. a
// DHT RepairCrashed) rewired the given slots' neighborhoods: each affected
// live node applies the §3.2 churn rule — timer reset, fresh neighbors at
// the queue front — and any in-flight retransmit chain is invalidated.
func (p *Protocol) NeighborsChanged(e event.Clock, slots ...int) {
	for _, s := range slots {
		p.onNeighborChange(e, s)
	}
}

// onNeighborChange implements the §3.2 churn rule for one affected peer:
// reset the timer to INIT_TIMER (rescheduling the pending probe) — the
// queue itself reconciles lazily, with fresh neighbors entering at the
// front.
func (p *Protocol) onNeighborChange(e event.Clock, slot int) {
	st := p.node(slot)
	if st == nil {
		return
	}
	st.TimerMS = p.cfg.InitTimerMS
	st.token.Cancel()
	st.epoch++
	st.token = e.Schedule(event.Time(st.TimerMS), st.fire)
}

// probe is one timer firing for slot u: find a partner, evaluate Var, and
// exchange if profitable. Under fault injection the cycle may span several
// events (retransmits after lost messages); without an injector every
// message arrives and the cycle completes within this one event.
func (p *Protocol) probe(e event.Clock, u int) {
	st := p.node(u)
	if st == nil || !p.O.Alive(u) {
		return
	}
	p.Counters.Probes++
	if p.faults.Enabled() {
		// Liveness eviction: contacting a crashed neighbor times out, so the
		// node drops the stale reference before choosing a first hop.
		if n := p.O.EvictDeadNeighbors(u); n > 0 {
			p.Counters.Evictions += uint64(n)
		}
	}
	p.sc.Nbrs = p.O.Logical.AppendNeighbors(p.sc.Nbrs[:0], u)
	st.Reconcile(p.sc.Nbrs)
	s, ok := st.FirstHop()
	if !ok {
		p.finishProbe(e, u, st, -1, false)
		return
	}
	p.probeAttempt(e, u, st, s, 0)
}

// probeAttempt is one transmission of the probe: walk + response, then — if
// everything arrived — the exchange evaluation. A lost message times out
// and retransmits with exponential back-off until MaxRetries is exhausted,
// at which point the cycle fails into the normal Markov back-off. Each
// retransmission is a fresh packet and takes a fresh random route.
func (p *Protocol) probeAttempt(e event.Clock, u int, st *nodeState, s, attempt int) {
	v, path, walked := p.findPartner(u, s)
	if !walked {
		p.finishProbe(e, u, st, -1, false)
		return
	}
	if !p.deliverWalk(e, path) {
		p.Counters.Timeouts++
		if attempt >= p.cfg.MaxRetries {
			p.finishProbe(e, u, st, -1, false)
			return
		}
		p.Counters.Retries++
		myEpoch := st.epoch
		e.Schedule(p.retransmitDelay(attempt), func() {
			if p.node(u) != st || st.epoch != myEpoch {
				p.Counters.StaleTimers++
				return
			}
			p.probeAttempt(e, u, st, s, attempt+1)
		})
		return
	}
	success := p.attemptExchange(e, u, v, path)
	p.finishProbe(e, u, st, v, success)
}

// finishProbe completes a probe cycle whatever its path: first-hop standing
// and Markov timer (the kernel's Finish), trace event, and the next cycle's
// scheduling.
func (p *Protocol) finishProbe(e event.Clock, u int, st *nodeState, partner int, success bool) {
	if p.Probe != nil {
		p.Probe(ProbeEvent{At: e.Now(), U: u, Partner: partner, Exchanged: success})
	}
	st.token = e.Schedule(event.Time(st.Finish(success, p.cfg)), st.fire)
}

// deliverWalk runs the probe's messages past the injector: one forwarding
// message per walk hop plus the partner's response back to the origin. It
// reports whether everything arrived; duplicated messages are recognized by
// their sequence numbers and dropped.
func (p *Protocol) deliverWalk(e event.Clock, path []int) bool {
	now := float64(e.Now())
	for i := 0; i+1 < len(path); i++ {
		d := p.faults.Deliver(p.O.HostOf(path[i]), p.O.HostOf(path[i+1]), now)
		if d.Lost {
			return false
		}
		if d.Dup {
			p.Counters.DupsDropped++
		}
	}
	d := p.faults.Deliver(p.O.HostOf(path[len(path)-1]), p.O.HostOf(path[0]), now)
	if d.Lost {
		return false
	}
	if d.Dup {
		p.Counters.DupsDropped++
	}
	return true
}

// retransmitDelay is the back-off before retransmission attempt+1:
// ProbeTimeout × 2^attempt, scaled by the configured jitter.
func (p *Protocol) retransmitDelay(attempt int) event.Time {
	d := p.cfg.ProbeTimeoutMS * float64(uint64(1)<<uint(attempt))
	if p.cfg.BackoffJitter > 0 {
		d *= 1 + p.cfg.BackoffJitter*p.r.Float64()
	}
	return event.Time(d)
}

// findPartner locates the exchange counterpart: a TTL-nhops random walk
// from u through s, or a uniform random peer under RandomProbe. It returns
// the partner, the walk path (for the Theorem 1 exclusion rule; it lives in
// p.sc until the next attempt), and whether a partner was found.
func (p *Protocol) findPartner(u, s int) (v int, path []int, ok bool) {
	if p.cfg.RandomProbe {
		alive := p.O.NumAlive()
		if alive < 2 {
			return 0, nil, false
		}
		for tries := 0; tries < 8; tries++ {
			cand := p.O.AliveSlotAt(p.r.Intn(alive))
			if cand != u {
				p.sc.Path = append(p.sc.Path[:0], u, cand)
				return cand, p.sc.Path, true
			}
		}
		return 0, nil, false
	}
	path, walked := p.O.RandomWalk(u, s, p.cfg.NHops, p.r, &p.sc)
	if len(path) > 0 { // a refused first hop sent nothing
		p.Counters.WalkMessages += uint64(len(path) - 1)
	}
	if !walked {
		p.Counters.WalkFailures++
		return 0, nil, false
	}
	return path[len(path)-1], path, true
}

// attemptExchange runs the kernel's Exchange for the (u,v) pair over this
// engine's measurements and does the §4.3 message accounting. It reports
// whether an exchange happened.
func (p *Protocol) attemptExchange(e event.Clock, u, v int, path []int) bool {
	if u == v || !p.O.Alive(u) || !p.O.Alive(v) {
		return false
	}
	measure := func(pairs [][2]int, rtt []float64) int { return p.measurePairs(float64(e.Now()), pairs, rtt) }
	out, variation, moved := Exchange(p.O, p.cfg.Policy, u, v, path, p.m, p.cfg.MinVar, measure, p.r, &p.sc)
	// Each side probes the other's (hypothetical) neighbors: the 2c of
	// PROP-G, the 2m of PROP-O.
	p.Counters.MeasureMessages += uint64(moved)
	switch out {
	case Rejected:
		p.Counters.Rejected++
	case Committed:
		// Every moved neighbor rewrites a routing entry.
		p.Counters.NotifyMessages += uint64(moved)
		p.Counters.Exchanges++
		if p.cfg.Policy == PROPO {
			moved /= 2 // ExchangeEvent counts a trade per side
		}
		p.emit(ExchangeEvent{At: e.Now(), U: u, V: v, Var: variation, Moved: moved})
	}
	return out == Committed
}

// measurePairs is the sequential driver's MeasureFunc. All ground truth is
// read first, with nothing between the reads; then each pair goes past the
// injector as a message: it may be lost (timeout + bounded synchronous retry
// — measurement round-trips are far shorter than the probe timeout, so the
// retries complete within the evaluation step; an exhausted budget ends the
// batch), and a delivered one observes the truth under the configured
// multiplicative Gaussian noise plus the injected queueing jitter. Without
// an injector every message arrives clean.
func (p *Protocol) measurePairs(now float64, pairs [][2]int, rtt []float64) int {
	p.O.HostLatencies(pairs, rtt)
	for k, pr := range pairs {
		for attempt := 0; ; attempt++ {
			d := p.faults.Deliver(pr[0], pr[1], now)
			if d.Lost {
				p.Counters.Timeouts++
				if attempt >= p.cfg.MaxRetries {
					return k
				}
				p.Counters.Retries++
				continue
			}
			if d.Dup {
				p.Counters.DupsDropped++
			}
			if p.cfg.MeasurementNoise > 0 {
				rtt[k] = max(0, rtt[k]*(1+p.cfg.MeasurementNoise*p.r.NormFloat64()))
			}
			rtt[k] += d.DelayMS
			break
		}
	}
	return len(pairs)
}

func (p *Protocol) emit(ev ExchangeEvent) {
	if p.Trace != nil {
		p.Trace(ev)
	}
}

// BackoffSnapshot summarizes the Markov back-off state of every registered
// node at one instant — the observability layer samples it on measurement
// ticks to explain probe-rate dips ("back-off storms") in the time series.
// All aggregates are integer sums over timer factors (every timer is
// INIT_TIMER × 2^k exactly), so the snapshot is independent of map
// iteration order and safe for the byte-determinism contract of
// internal/obs.
type BackoffSnapshot struct {
	// Nodes is the number of registered nodes.
	Nodes int
	// BackedOff counts nodes whose timer currently exceeds INIT_TIMER.
	BackedOff int
	// AtMax counts nodes at the MAX_TIMER cap (MaxTimerFactor × INIT_TIMER).
	AtMax int
	// SumFactor is Σ timer/INIT_TIMER over all nodes; SumFactor/Nodes is the
	// mean back-off factor (1.0 = everyone probing at full rate).
	SumFactor int
}

// MeanFactor returns the mean timer/INIT_TIMER factor (0 with no nodes).
func (b BackoffSnapshot) MeanFactor() float64 {
	if b.Nodes == 0 {
		return 0
	}
	return float64(b.SumFactor) / float64(b.Nodes)
}

// BackoffSnapshot captures the current timer state across all nodes.
func (p *Protocol) BackoffSnapshot() BackoffSnapshot {
	var bs BackoffSnapshot
	maxMS := p.cfg.MaxTimerFactor * p.cfg.InitTimerMS
	for _, st := range p.nodes {
		if st == nil {
			continue
		}
		bs.Nodes++
		factor := int(st.TimerMS / p.cfg.InitTimerMS)
		if factor < 1 {
			factor = 1
		}
		bs.SumFactor += factor
		if st.TimerMS > p.cfg.InitTimerMS {
			bs.BackedOff++
		}
		if st.TimerMS >= maxMS {
			bs.AtMax++
		}
	}
	return bs
}

// TimerOf exposes a node's current timer in ms (testing/analysis).
func (p *Protocol) TimerOf(slot int) (float64, bool) {
	st := p.node(slot)
	if st == nil {
		return 0, false
	}
	return st.TimerMS, true
}

// Registered reports how many slots are under protocol control.
func (p *Protocol) Registered() int { return p.count }

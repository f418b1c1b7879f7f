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
// That loop is one sans-IO machine, Cycle, which Protocol (on event.Clock,
// so simulated or wall time; DESIGN.md §10) and propnode.Runtime drive.
//
// Key types: Protocol (one running instance over an overlay), Config,
// Policy (PROPG/PROPO), Cycle and Step, and Txn (the version-guarded swap
// every simulator commits through). DESIGN.md §3 records every protocol
// constant and the reconstruction of the paper's lost digits.
package core

import (
	"fmt"
	"math"
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
	// MeasurementNoise, when positive, perturbs every probe RTT used in the
	// Var computation by a multiplicative Gaussian factor (1 + σ·N(0,1)),
	// clamped at zero. The topology change itself always applies to ground
	// truth — only the decision is noisy, as in a real deployment. Zero
	// (the default, and the paper's setting) means exact measurements.
	MeasurementNoise float64
}

// MaxTimerFactor caps the Markov back-off: MAX_TIMER = MaxTimerFactor ×
// INIT_TIMER (paper: 2^5 = 32, "at most five times of suspending").
const MaxTimerFactor = 32

// Retransmission (DESIGN.md §9). These only matter when an injector
// attached via AttachFaults loses messages.
const (
	// probeTimeoutMS is how long a peer waits for a probe step to be
	// answered before declaring the message lost and retransmitting —
	// generous against the transit-stub RTT spread.
	probeTimeoutMS = 5000.0
	// maxRetries bounds retransmissions per probe step; after the budget is
	// exhausted the probe cycle fails and falls back to the Markov back-off.
	maxRetries = 3
	// backoffJitter desynchronizes retransmit timers: each retransmit delay
	// is scaled by (1 + backoffJitter·U[0,1)).
	backoffJitter = 0.1
)

// DefaultConfig returns the paper's parameterization for the given policy.
func DefaultConfig(policy Policy) Config {
	return Config{
		Policy:        policy,
		NHops:         2,
		MinVar:        0,
		InitTimerMS:   60000,
		MaxInitTrials: 10,
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
	case !(c.InitTimerMS > 0 && c.InitTimerMS < math.Inf(1)):
		return fmt.Errorf("core: InitTimerMS = %v, want finite and > 0", c.InitTimerMS)
	case c.MaxInitTrials < 1:
		return fmt.Errorf("core: MaxInitTrials = %d, want >= 1", c.MaxInitTrials)
	case !(c.MeasurementNoise >= 0 && c.MeasurementNoise < math.Inf(1)):
		return fmt.Errorf("core: MeasurementNoise = %v, want finite and >= 0", c.MeasurementNoise)
	case !(c.MinVar < math.Inf(1)):
		return fmt.Errorf("core: MinVar = %v, want below +Inf (-Inf takes every exchange)", c.MinVar)
	}
	return nil
}

// The peer kernel. Everything below up to CycleEvent is the §3.2 per-peer
// protocol with no clock, lock, counter or message in it: the neighborQ, the
// first-hop standing rule, the Markov timer, trade selection and the
// evaluate → gate → commit step, which the probe cycle (cycle.go) calls in
// order. Protocol (this package, on event.Clock) and propnode.Runtime
// (goroutines over a transport) are drivers of the cycle: they own I/O,
// locking and counting, and nothing else.

// QueueEntry is one neighborQ entry: a neighbor slot, its standing, and the
// RTT the peer last measured to it. Lower Prio is probed sooner; ties go to
// the earlier arrival. The RTT is the before-leg of the peer's next
// evaluation for as long as host still names the neighbor's host: a peer's
// own host moves only in a PROP-G swap, which rewrites both movers' entries,
// so a matching host means the same two hosts. The entry is 24 bytes
// (TestTxnSize): at 32, chord-faults' live heap grew 13 %.
type QueueEntry struct {
	Neighbor int
	Prio     int32
	seq      int32   // arrival order, the FIFO tie-break
	host     int32   // 1 + the neighbor's host when rtt was measured; 0 = cold
	rtt      float32 // exact for the underlay's integer-millisecond truths
}

// remember stores rtt, measured to host, as the entry's before-leg.
func (qe *QueueEntry) remember(host int, rtt float64) {
	qe.host, qe.rtt = int32(host+1), float32(rtt)
}

// Peer is one peer's protocol state: the neighborQ, the number of probe
// cycles started (the warm-up gate) and the probe timer. A driver sets
// TimerMS to INIT_TIMER when the peer registers and again whenever its
// neighborhood churns (§3.2); every other change goes through the methods.
// The queue is kept in ascending neighbor order.
type Peer struct {
	Queue   []QueueEntry
	Trials  int
	TimerMS float64

	seq int32
	hop int // 1 + the first hop of the cycle in flight; 0 = none
}

// Init fills the neighborQ with nbrs — ascending, as AppendNeighbors lists
// them — all cold, arriving in a random order ("initialized with a random
// sequence … so each neighbor has an equal probability to be probed").
func (p *Peer) Init(nbrs []int, r *rng.Rand) {
	q := p.Queue[:0]
	for k, nb := range nbrs {
		q = append(q, QueueEntry{Neighbor: nb, seq: int32(k)})
	}
	// The shuffle deals the arrivals: the i-th is entry q[i].seq. Inverting
	// that permutation in place, one cycle at a time (^x marks an entry
	// done), leaves each entry its own arrival without a sort.
	r.Shuffle(len(q), func(i, j int) { q[i].seq, q[j].seq = q[j].seq, q[i].seq })
	for i := range q {
		if q[i].seq < 0 {
			continue
		}
		prev, cur := int32(i), q[i].seq
		for cur != int32(i) {
			next := q[cur].seq
			q[cur].seq = ^prev
			prev, cur = cur, next
		}
		q[i].seq = ^prev
	}
	for i := range q {
		q[i].seq = p.seq + ^q[i].seq
	}
	p.seq += int32(len(q))
	p.Queue = q
}

// Reconcile drops entries that are no longer in nbrs — the peer's current
// neighbors, ascending and each listed once, as AppendNeighbors lists them —
// and queues the new ones cold at the front (minimum priority — probed
// earliest, per §3.2's churn rule), arriving in ascending order. It is one
// merge of the two sorted lists, and on an unchanged neighborhood it writes
// nothing.
func (p *Peer) Reconcile(nbrs []int) {
	q := p.Queue
	kept, minPrio := 0, int32(0)
	for i, j := 0, 0; i < len(q); i++ {
		for j < len(nbrs) && nbrs[j] < q[i].Neighbor {
			j++
		}
		if j < len(nbrs) && nbrs[j] == q[i].Neighbor {
			if kept != i {
				q[kept] = q[i]
			}
			kept, j = kept+1, j+1
			minPrio = min(minPrio, q[i].Prio)
		}
	}
	fresh := len(nbrs) - kept
	if fresh == 0 {
		p.Queue = q[:kept]
		return
	}
	// Merge from the back: nbrs[j] lands at j, a kept entry never moves
	// down, and the fresh ones take their arrival numbers in ascending order.
	q = slices.Grow(q[:kept], fresh)[:len(nbrs)]
	p.seq += int32(fresh)
	seq, i := p.seq, kept-1
	for j := len(nbrs) - 1; j >= 0; j-- {
		if i >= 0 && q[i].Neighbor == nbrs[j] {
			q[j] = q[i]
			i--
			continue
		}
		seq--
		q[j] = QueueEntry{Neighbor: nbrs[j], Prio: minPrio - 1, seq: seq}
	}
	p.Queue = q
}

// FirstHop opens a probe cycle: it counts the trial and returns the
// minimum-priority neighbor as the walk's first hop. ok is false when the
// queue is empty. The cycle ends with Finish; the queue may be reconciled
// in between.
func (p *Peer) FirstHop() (neighbor int, ok bool) {
	p.Trials++
	best := -1
	for i, qe := range p.Queue {
		if best < 0 || qe.Prio < p.Queue[best].Prio ||
			(qe.Prio == p.Queue[best].Prio && qe.seq < p.Queue[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	p.hop = p.Queue[best].Neighbor + 1
	return p.Queue[best].Neighbor, true
}

// entry returns the index of neighbor's entry, or -1.
func (p *Peer) entry(neighbor int) int {
	return slices.IndexFunc(p.Queue, func(qe QueueEntry) bool { return qe.Neighbor == neighbor })
}

// Remember stores rtt, just measured to host, the host neighbor holds, as
// neighbor's before-leg; a negative rtt makes the entry cold. A neighbor the
// queue lacks is ignored.
func (p *Peer) Remember(neighbor, host int, rtt float64) {
	if i := p.entry(neighbor); i >= 0 && rtt >= 0 {
		p.Queue[i].remember(host, rtt)
	} else if i >= 0 {
		p.Queue[i].host = 0
	}
}

// Recall returns the RTT an entry remembers to host, if one does.
func (p *Peer) Recall(host int) (rtt float64, ok bool) {
	for _, qe := range p.Queue {
		if qe.host == int32(host+1) {
			return float64(qe.rtt), true
		}
	}
	return 0, false
}

// maxPrio returns the maximum priority in the queue (0 if empty).
func (p *Peer) maxPrio() int32 {
	max := int32(0)
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
// resetting once it passes MAX_TIMER = MaxTimerFactor × INIT_TIMER. A first
// hop that left the queue meanwhile keeps no standing.
func (p *Peer) Finish(success bool, cfg Config) (nextTimerMS float64) {
	warmUp := p.Trials <= cfg.MaxInitTrials
	if i := p.entry(p.hop - 1); p.hop > 0 && i >= 0 {
		if success && !warmUp {
			p.Queue[i].Prio--
		} else {
			p.Queue[i].Prio = p.maxPrio() + 1
		}
	}
	p.hop = 0
	if success || warmUp {
		p.TimerMS = cfg.InitTimerMS
	} else {
		p.TimerMS *= 2
		if p.TimerMS > MaxTimerFactor*cfg.InitTimerMS {
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

// Evaluation is one planned peer-exchange between slots U and V: what its
// Var measures and what committing it does. The cycle's Reached makes one
// with Plan and Measured judges it; a driver that measures without holding
// the overlay Lists it again at commit time, then Commits.
type Evaluation struct {
	Policy Policy
	U, V   int
	// Give and Take are PROP-O's trade lists (nil under PROP-G). They live
	// in the Scratch Plan was given.
	Give, Take []int
	// Moved counts the neighbor entries the exchange touches — |N(u)|+|N(v)|
	// under PROPG, both trade lists under PROPO — which is the measure
	// messages charged and, on commit, the notifications owed (§4.3). With
	// warm neighborQ entries it is also about the RTTs Protocol sends: one
	// after-leg per live entry, the before-legs remembered (DESIGN.md §3).
	Moved int
}

// Plan picks the exchange the (u,v) pair evaluates — a host swap under
// PROPG, a trade of up to m neighbors per side (never ones on path) under
// PROPO — and lists its host pairs into sc (List). ok is false when no legal
// trade exists. Both slots must be alive.
func Plan(o *overlay.Overlay, policy Policy, u, v int, path []int, m int, r *rng.Rand, sc *overlay.Scratch) (ev Evaluation, ok bool) {
	ev = Evaluation{Policy: policy, U: u, V: v}
	switch policy {
	case PROPG:
		ev.Moved = o.Degree(u) + o.Degree(v)
	case PROPO:
		ev.Give, ev.Take = SelectTrade(o, u, v, path, m, r, sc)
		if len(ev.Give) == 0 {
			return ev, false
		}
		ev.Moved = len(ev.Give) + len(ev.Take)
	default:
		return ev, false
	}
	ev.List(o, sc)
	return ev, true
}

// List writes into sc.Pairs the host pairs ev measures, as the overlay
// stands now, and sizes sc.RTT to match. It leaves ev's trade lists alone,
// whichever Scratch holds them.
func (ev *Evaluation) List(o *overlay.Overlay, sc *overlay.Scratch) {
	if ev.Policy == PROPG {
		o.SwapPairs(ev.U, ev.V, sc)
	} else {
		o.TradePairs(ev.U, ev.V, ev.Give, ev.Take, sc)
	}
}

// Judge folds a batch of RTTs for ev's pair list, of which the first
// measured were filled, into Var and rules on it: Poisoned when the batch
// was cut short (the RTTs past it are zeroed; an exchange on incomplete
// data could corrupt the slot↔host mapping), BelowMinVar unless Var >
// minVar (NaN is not), and Exchanged when Commit should execute it.
func (ev *Evaluation) Judge(rtt []float64, measured int, minVar float64) (verdict Reason, variation float64) {
	clear(rtt[measured:]) // a poisoned Var counts what was not measured as 0
	if ev.Policy == PROPG {
		variation = overlay.SwapVar(rtt)
	} else {
		variation = overlay.TradeVar(rtt)
	}
	switch {
	case measured < len(rtt):
		return Poisoned, variation
	case !(variation > minVar):
		return BelowMinVar, variation
	}
	return Exchanged, variation
}

// Commit executes ev on o: SwapHosts under PROPG, ExchangeNeighbors under
// PROPO, which refuses a trade that Theorem 1 (path) or the overlay as it
// stands now forbids.
func (ev *Evaluation) Commit(o *overlay.Overlay, path []int) error {
	if ev.Policy == PROPG {
		return o.SwapHosts(ev.U, ev.V)
	}
	return o.ExchangeNeighbors(ev.U, ev.V, ev.Give, ev.Take, path)
}

// CycleEvent records one ended probe cycle (§3.2) for tracing: the prober
// U, the partner V the walk reached (-1 if none), how the cycle ended, the
// evaluated Var (0 before Judge) and, if the exchange executed, Moved: the
// neighbors exchanged per side (PROP-O) or |N(u)|+|N(v)| (PROP-G).
type CycleEvent struct {
	At     event.Time
	U, V   int
	Reason Reason
	Var    float64
	Moved  int
}

// Protocol runs PROP over one overlay inside one event engine.
type Protocol struct {
	// O is the overlay being optimized.
	O *overlay.Overlay
	// Counters tallies message overhead (§4.3).
	Counters metrics.Counters
	// Trace, if non-nil, receives every ended probe cycle; an executed
	// exchange is one whose Reason is Exchanged.
	Trace func(CycleEvent)

	cfg    Config
	r      *rng.Rand
	m      int              // resolved PROP-O exchange size
	nodes  []*nodeState     // by slot; nil = not under protocol control
	faults *faults.Injector // nil = every message arrives clean
	// sc, round and the measurement's buffers hold the probe cycle in
	// flight. Evaluations never span events (one clock, handlers run one at a
	// time), so one set serves every node.
	sc    overlay.Scratch
	round Round
	legs  []leg // the pairs measurePairs sends, in pair order
}

// leg is one pair of an evaluation that goes on the wire: its index in the
// pair list and, for a before-leg, the index of the owner's entry that
// remembers it (-1 for an after-leg or a neighbor the queue lacks).
type leg struct{ k, entry int32 }

// nodeState is the sequential driver's per-slot bookkeeping around the
// peer's Cycle: its probe timer, made once at register and re-armed in place.
type nodeState struct {
	Cycle
	timer event.Timer
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
	p.round = NewRound(&p.cfg, p.m, r, &p.sc)
	return p, nil
}

// AttachFaults runs the protocol's messages past inj: losses trigger
// timeouts and bounded retransmission with exponential back-off + jitter,
// and duplicates are dropped by their guard: a sequence number, or for a
// commit's proposal the partner's swap version (Txn). Each
// message's fate is the fault model's one hash — a host's k-th message gets
// inj.DeliverStateless(from, to, k, now) — so it draws nothing from the
// protocol's generator. A nil injector — or none attached — takes the same
// one path, delivering every message clean.
func (p *Protocol) AttachFaults(inj *faults.Injector) { p.faults = inj }

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
	st := &nodeState{Cycle: Cycle{Peer: Peer{TimerMS: p.cfg.InitTimerMS}}}
	st.timer = e.Timer(func() { p.probe(e, slot) })
	st.Init(p.O.Neighbors(slot), p.r)
	for len(p.nodes) <= slot {
		p.nodes = append(p.nodes, nil)
	}
	p.nodes[slot] = st
	delay := event.Time(p.r.Float64() * p.cfg.InitTimerMS)
	st.timer.Reset(delay)
}

// node returns slot's protocol state, or nil if it is not registered.
func (p *Protocol) node(slot int) *nodeState {
	if slot < 0 || slot >= len(p.nodes) {
		return nil
	}
	return p.nodes[slot]
}

// unregister stops slot's probe timer and forgets the node, which strands
// any in-flight retransmit chain.
func (p *Protocol) unregister(slot int) {
	if st := p.node(slot); st != nil {
		st.timer.Stop()
		p.nodes[slot] = nil
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

// NeighborsChanged tells the protocol that an external repair pass (e.g. an
// overlay.Membership Repair) rewired the given slots' neighborhoods: each affected
// live node applies the §3.2 churn rule — timer reset, fresh neighbors at
// the queue front — and any in-flight retransmit chain is invalidated.
func (p *Protocol) NeighborsChanged(e event.Clock, slots ...int) {
	for _, s := range slots {
		p.onNeighborChange(e, s)
	}
}

// onNeighborChange applies the cycle's churn Reset to one affected peer and
// reschedules its pending probe — the queue itself reconciles lazily, with
// fresh neighbors entering at the front.
func (p *Protocol) onNeighborChange(e event.Clock, slot int) {
	st := p.node(slot)
	if st == nil {
		return
	}
	st.timer.Reset(event.Time(st.Reset(&p.round).Delay))
}

// probe is one timer firing for slot u: the first input of its cycle. Under
// fault injection the cycle may span several events (retransmits after
// lost messages); without an injector it completes within this one.
func (p *Protocol) probe(e event.Clock, u int) {
	st := p.node(u)
	if st == nil || !p.O.Alive(u) {
		return
	}
	p.Counters.Probes++
	// Liveness eviction: contacting a crashed neighbor times out, so the
	// node drops the stale reference before choosing a first hop.
	p.Counters.Evictions += uint64(p.O.EvictDeadNeighbors(u))
	p.sc.Nbrs = p.O.Logical.AppendNeighbors(p.sc.Nbrs[:0], u)
	p.run(e, u, st, st.Fired(&p.round, p.sc.Nbrs))
}

// run does what u's cycle asks until it waits or ends. A lost walk
// retransmits after an exponential back-off, each time a fresh packet on a
// fresh random route; a retransmit timer the cycle no longer waits for is
// absorbed (StaleTimers).
func (p *Protocol) run(e event.Clock, u int, st *nodeState, step Step) {
	var path []int
	var ver uint32 // the partner's swap version, as the walk's report carried it
	for {
		switch step.Kind {
		case Walk:
			v, walk, walked := p.findPartner(u, step.Hop)
			switch path = walk; {
			case !walked:
				step = st.WalkStuck(&p.round)
			case !p.deliverWalk(e, path):
				step = st.WalkLost(&p.round)
			default:
				ver = p.node(v).Version()
				step = st.Reached(&p.round, p.O, u, v, path)
			}
		case Resend:
			p.Counters.Retries++
			txn := step.Txn
			e.Schedule(p.retransmitDelay(step.Attempt), func() {
				if p.node(u) != st {
					p.Counters.StaleTimers++
					return
				}
				p.run(e, u, st, st.Retransmit(txn))
			})
			return
		case Measure:
			step = st.Measured(&p.round, p.measurePairs(float64(e.Now()), &p.sc))
		case Commit:
			step = st.Committed(&p.round, p.propose(float64(e.Now()), u, ver, path))
		case End:
			p.tally(e, u, step.Reason)
			st.timer.Reset(event.Time(step.Delay))
			return
		default: // Ignore
			p.Counters.StaleTimers++
			return
		}
	}
}

// tally counts one ended cycle (§4.3) and traces it. Each side of an
// evaluation probes the other's (hypothetical) neighbors — the 2c of
// PROP-G, the 2m of PROP-O — and every neighbor an executed exchange moves
// rewrites a routing entry.
func (p *Protocol) tally(e event.Clock, u int, why Reason) {
	c, rd := &p.Counters, &p.round
	c.MeasureMessages += uint64(rd.Ev.Moved)
	ev := CycleEvent{At: e.Now(), U: u, V: rd.V, Reason: why, Var: rd.Var}
	switch why {
	case NoTrade, BelowMinVar, Refused:
		c.Rejected++
	case Exchanged:
		c.NotifyMessages += uint64(rd.Ev.Moved)
		c.Exchanges++
		if ev.Moved = rd.Ev.Moved; p.cfg.Policy == PROPO {
			ev.Moved /= 2 // a trade counts per side
		}
	}
	if p.Trace != nil {
		p.Trace(ev)
	}
}

// deliverWalk runs the probe's messages past the injector: one forwarding
// message per walk hop plus the partner's response back to the origin. It
// reports whether everything arrived; the first loss times the walk out.
func (p *Protocol) deliverWalk(e event.Clock, path []int) bool {
	now := float64(e.Now())
	for i := range path {
		next := path[(i+1)%len(path)] // the last hop is the response
		if _, ok := p.deliver(p.O.HostOf(path[i]), p.O.HostOf(next), now, 0); !ok {
			return false
		}
	}
	return true
}

// deliver sends one message from host a to host b past the injector at now
// and reports its delivery, or false once 1 + retries transmissions were
// lost: each loss is a timeout, each resend a retry. A duplicated copy is
// recognized by its guard and dropped.
func (p *Protocol) deliver(a, b int, now float64, retries int) (faults.Delivery, bool) {
	for attempt := 0; ; attempt++ {
		d := p.faults.Deliver(a, b, now)
		if !d.Lost {
			if d.Dup {
				p.Counters.DupsDropped++
			}
			return d, true
		}
		p.Counters.Timeouts++
		if attempt >= retries {
			return d, false
		}
		p.Counters.Retries++
	}
}

// propose is u's Commit step: its host sends the proposal for the round's
// Evaluation to the partner's host, with measurePairs' bounded synchronous
// retry, and the partner Prepares each copy that arrives at ver, the
// version the walk's report carried. Only an accepted Prepare commits, and
// a duplicate meets the moved version. The acknowledgment is loss-exempt
// (Txn's one assumption): the exchange executed iff a copy was accepted,
// and an exhausted budget leaves both sides as they were.
func (p *Protocol) propose(now float64, u int, ver uint32, path []int) bool {
	ev := &p.round.Ev
	d, ok := p.deliver(p.O.HostOf(u), p.O.HostOf(ev.V), now, maxRetries)
	if !ok {
		return false
	}
	acc := p.node(ev.V)
	acked := acc.Prepare(ver) && ev.Commit(p.O, path) == nil
	if acked && ev.Policy == PROPG {
		p.rewrite(ev, &p.sc)
	}
	if d.Dup {
		acc.Prepare(ver) // the second copy, which the moved version refuses
	}
	return acked
}

// retransmitDelay is the back-off before retransmission attempt+1:
// probeTimeoutMS × 2^attempt, scaled by the jitter.
func (p *Protocol) retransmitDelay(attempt int) event.Time {
	return event.Time(probeTimeoutMS * float64(uint64(1)<<uint(attempt)) * (1 + float64(backoffJitter*p.r.Float64())))
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

// measurePairs fills sc.RTT[k] with the measured RTT between the hosts of
// sc.Pairs[k] and returns how many it measured — all, or the index of the
// first pair it could not measure, past which it attempts none. A
// before-leg whose owner's entry is warm for the neighbor's current host is
// read from the entry (§3.2: a peer knows its RTT to each neighbor). Every
// other pair — the after-legs and the cold or stale before-legs — goes on
// the wire: all their ground truth is read first, with nothing between the
// reads (DESIGN.md §7 "Measurement batch"); then each goes past the
// injector as a message: it may be lost (timeout + bounded synchronous
// retry — measurement round-trips are far shorter than the probe timeout,
// so the retries complete within the evaluation step; an exhausted budget
// ends the batch), and a delivered one observes the truth under the
// configured multiplicative Gaussian noise plus the injected queueing
// jitter, and a delivered before-leg fills its entry. Without an injector
// every message arrives clean.
func (p *Protocol) measurePairs(now float64, sc *overlay.Scratch) int {
	pairs, rtt := sc.Pairs, sc.RTT
	p.legs = p.legs[:0]
	var q []QueueEntry // the owner's queue, merged against its legs
	owner, at := -1, 0
	for j, s := range sc.Legs {
		k, nb := 2*j, int(s[1])
		if int(s[0]) != owner {
			owner, q, at = int(s[0]), nil, 0
			if st := p.node(owner); st != nil {
				q = st.Queue
			}
		}
		for at < len(q) && q[at].Neighbor < nb {
			at++
		}
		switch {
		case at == len(q) || q[at].Neighbor != nb:
			p.legs = append(p.legs, leg{int32(k), -1})
		case q[at].host == int32(pairs[k][1]+1):
			rtt[k] = float64(q[at].rtt)
		default:
			p.legs = append(p.legs, leg{int32(k), int32(at)})
		}
		p.legs = append(p.legs, leg{int32(k + 1), -1})
	}
	for _, l := range p.legs {
		pr := pairs[l.k]
		rtt[l.k] = p.O.Latency(pr[0], pr[1])
	}
	for _, l := range p.legs {
		pr := pairs[l.k]
		d, ok := p.deliver(pr[0], pr[1], now, maxRetries)
		if !ok {
			return int(l.k)
		}
		if p.cfg.MeasurementNoise > 0 {
			rtt[l.k] = max(0, rtt[l.k]*(1+float64(p.cfg.MeasurementNoise*p.r.NormFloat64())))
		}
		rtt[l.k] += d.DelayMS
		if l.entry >= 0 {
			p.nodes[sc.Legs[l.k/2][0]].Queue[l.entry].remember(pr[1], rtt[l.k])
		}
	}
	return len(pairs)
}

// rewrite is a committed swap's effect on the movers' memory: U and V now
// sit on each other's hosts, so every entry of theirs takes the after-leg
// sc measured to its neighbor, and an entry sc did not list goes cold. Their
// neighbors' entries need nothing: the host they remember is gone from the
// slot.
func (p *Protocol) rewrite(ev *Evaluation, sc *overlay.Scratch) {
	j := 0
	for _, x := range [2]int{ev.U, ev.V} {
		q := p.node(x).Queue
		for i := range q {
			entry := [2]int32{int32(x), int32(q[i].Neighbor)}
			for j < len(sc.Legs) && sc.Legs[j][0] == entry[0] && sc.Legs[j][1] < entry[1] {
				j++
			}
			if j < len(sc.Legs) && sc.Legs[j] == entry {
				q[i].remember(sc.Pairs[2*j+1][1], sc.RTT[2*j+1])
			} else {
				q[i].host = 0
			}
		}
		for j < len(sc.Legs) && sc.Legs[j][0] == int32(x) {
			j++
		}
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
	// AtMax counts nodes at the MAX_TIMER cap (32 × INIT_TIMER).
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
	maxMS := MaxTimerFactor * p.cfg.InitTimerMS
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

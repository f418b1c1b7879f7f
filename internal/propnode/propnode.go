// Package propnode runs PROP agents speaking PROP-G/PROP-O over a
// transport.Network — the live counterpart of the discrete-event
// simulation in internal/core, and a second driver of the same probe cycle
// (core.Cycle, with overlay.WalkStep at each walk hop): this package owns
// the timers, the locks, the messages and the counters, never a protocol
// rule, and counts each cycle end by its core.Reason. Each physical host
// gets one agent: a transport.Node (which answers pings), a probe and a
// sweep timer on the runtime's clock (Config.Clock), and handlers that
// forward TTL walks and answer measurement RPCs.
// Every latency the protocol consumes is a real RTT measured by exchanging
// messages — the failure detector's heartbeats to each neighbor, remembered
// in its neighborQ entry, a ping for any other host, and one TMeasure
// relay per exchange for the partner's side — no oracle lookups, and lost
// messages ride the transport's timeout + bounded-retransmit machinery.
//
// Concurrency model: an agent is a reactor and starts no goroutine. Each
// input — a timer firing, a delivery to a handler, a call's done — runs on
// the goroutine that brings it (its clock's runner, a sender's or a call
// timer's; on an event.Engine, the one stepping it) and never waits: it
// takes the runtime mutex (the overlay, the runtime RNG) only where it
// reads the overlay, then its agent's, steps the agent's core.Cycle,
// releases both and sends what the step asks. No lock
// is held across a send: an exchange plans under the lock, measures without
// it, and commits under it again only if the host pairs it measured are
// still the ones the exchange moves, else it is stale. Churn is the
// overlay's own membership vocabulary, addressed by host: Join, Leave,
// Crash and Repair (a crashed host comes back by joining again, one
// incarnation later), over the unstructured membership of internal/gnutella.
//
// Key types: Runtime, Config. See DESIGN.md §10 ("Live runtime").
package propnode

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gnutella"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Config parameterizes a live runtime; zero values select the defaults
// noted on each field.
type Config struct {
	// Policy selects PROP-G (host swap) or PROP-O (m-neighbor trade). The
	// walk TTL, warm-up length and back-off cap are core.DefaultConfig's
	// for it, and PROP-O trades the overlay's min degree at start.
	Policy core.Policy
	// MinVar is the exchange threshold (§4.2 derives 0).
	MinVar float64
	// ProbeIntervalMS is INIT_TIMER (default 50ms — scaled down from the
	// paper's minute so tests converge in test time).
	ProbeIntervalMS float64
	// PingTimeoutMS is the first-attempt deadline of every call — pings,
	// heartbeats, measurement RPCs, walks (default 50ms; retransmits double
	// it).
	PingTimeoutMS float64
	// HeartbeatIntervalMS is the failure detector's sweep period (default
	// 4x ProbeIntervalMS — detection only has to beat the heartbeat's
	// retransmits, not the probe cadence). Each sweep pings every live
	// neighbor once, and exchanges read those RTTs, so it also bounds their
	// age (plus a sweep).
	HeartbeatIntervalMS float64
	// Lat is the ground-truth latency model recorded in the overlay for
	// metrics like MeanLinkLatency; the protocol itself never reads it. Nil
	// means metrics report zero.
	Lat overlay.LatencyFunc
	// Seed drives all runtime randomness (walk hops, trade selection,
	// membership wiring, probe staggering).
	Seed uint64
	// Clock runs every timer: the agents' probe and sweep timers and their
	// nodes' call deadlines. Nil means wall time: one event.WallClock per P
	// (at least two), picked by host, and wall timers for the deadlines. On
	// an event.Engine, which the caller steps and calls the runtime from on
	// one goroutine, the run is a pure function of Seed.
	Clock event.Clock
}

func (c *Config) fill() {
	if c.ProbeIntervalMS == 0 {
		c.ProbeIntervalMS = 50
	}
	if c.PingTimeoutMS == 0 {
		c.PingTimeoutMS = 50
	}
	if c.HeartbeatIntervalMS == 0 {
		c.HeartbeatIntervalMS = 4 * c.ProbeIntervalMS
	}
	if c.Lat == nil {
		c.Lat = func(a, b int) float64 { return 0 }
	}
}

// maxTimerMS is the longest wall timer there is (a Go duration's), in
// milliseconds.
const maxTimerMS = math.MaxInt64 / 1e6

// validate rejects what fill cannot repair: an interval that is not
// positive, or whose longest timer (the probe's core.MaxTimerFactor ×
// INIT_TIMER) overflows, spins a timer loop; a deadline that is not
// positive fails every call.
func (c *Config) validate() error {
	switch {
	case !(c.ProbeIntervalMS > 0 && c.ProbeIntervalMS <= maxTimerMS/core.MaxTimerFactor):
		return fmt.Errorf("propnode: ProbeIntervalMS = %v, want in (0, %v]", c.ProbeIntervalMS, maxTimerMS/core.MaxTimerFactor)
	case !(c.HeartbeatIntervalMS > 0 && c.HeartbeatIntervalMS <= maxTimerMS):
		return fmt.Errorf("propnode: HeartbeatIntervalMS = %v, want in (0, %v]", c.HeartbeatIntervalMS, maxTimerMS)
	case !(c.PingTimeoutMS > 0 && c.PingTimeoutMS <= maxTimerMS):
		return fmt.Errorf("propnode: PingTimeoutMS = %v, want in (0, %v]", c.PingTimeoutMS, maxTimerMS)
	}
	return nil
}

// callRetries bounds retransmissions per call.
const callRetries = 3

// ClusterLat is the loopback demo's ground truth, which the chaos harness
// and this package's tests share: a two-cluster latency model in which
// same-parity hosts are 1ms apart and cross-parity hosts 20ms, so
// location-aware exchanges have an obvious optimum to find.
func ClusterLat(a, b int) float64 {
	if a == b {
		return 0
	}
	if a%2 == b%2 {
		return 1
	}
	return 20
}

// Counters tallies the runtime's protocol activity, as the Counters method
// of a Runtime snapshots it.
type Counters struct {
	// Probes counts probe cycles started; each ends once, by a core.Reason,
	// in one of the fields below.
	Probes uint64
	// Exchanges counts executed peer-exchanges (core.Exchanged).
	Exchanges uint64
	// Rejected counts cycles that reached a partner and did not exchange
	// (core.PartnerGone, NoTrade, BelowMinVar, Refused).
	Rejected uint64
	// WalkFailures counts cycles with no first hop, or whose probing walk
	// dead-ended or timed out (core.NoFirstHop, WalkFailed, WalkLost).
	WalkFailures uint64
	// Stale counts profitable evaluations that did not commit because the
	// overlay moved while their RTTs were measured (core.Refused): the host
	// pairs listed again at commit time differed, the overlay refused the
	// commit, or the agent or a slot was gone. Each is also counted in
	// Rejected.
	Stale uint64
	// MeasureFailures counts Var evaluations aborted by a failed RTT probe
	// (core.Poisoned).
	MeasureFailures uint64
	// Heartbeats counts failure-detector pings sent.
	Heartbeats uint64
	// SuspectEvictions counts neighbor links dropped by the failure detector
	// (confirmed corpses and unanswered heartbeats alike).
	SuspectEvictions uint64
	// AutoRepairs counts corpses repaired by membership repair the runtime
	// triggers itself — a detector sweep, or a probe that evicted an edge
	// to a dead neighbor — as opposed to an explicit Repair call.
	AutoRepairs uint64
	// Recovers counts joins of a host that had an earlier incarnation: a
	// crashed or departed machine coming back.
	Recovers uint64
	// StaleEpochs counts messages and exchange attempts absorbed by the
	// incarnation epoch guard — traffic from an earlier life of a host
	// that must not leak into its rejoined one.
	StaleEpochs uint64
}

// Runtime is a set of live PROP agents over one transport network.
type Runtime struct {
	cfg    Config
	kernel core.Config // the §3.2 walk and timer parameters, on ProbeIntervalMS
	net    transport.Network

	mu          sync.Mutex
	o           *overlay.Overlay
	members     gnutella.Net // o's membership rule; O is set by Start
	r           *rng.Rand
	agents      map[int]*agent     // by host
	incarnation map[int]uint32     // per-host epoch, survives Crash, Leave and rejoin
	m           int                // resolved PROP-O trade size
	sc          overlay.Scratch    // for work done within one hold of mu, like o and r
	stopped     atomic.Bool        // stored under mu
	clocks      []*event.WallClock // the runtime's own, when Config.Clock is nil

	// inputs counts the timer firings running and the calls in flight, each
	// until its outcome is used; Stop waits on idle (over mu) for zero, or
	// steps the engine to it.
	inputs atomic.Int64
	idle   sync.Cond
	relays sync.Pool // *relay records

	probes        atomic.Uint64
	ends          [core.NumReasons]atomic.Uint64 // probe cycles ended, by core.Reason
	heartbeats    atomic.Uint64
	suspectEvicts atomic.Uint64
	autoRepairs   atomic.Uint64
	recovers      atomic.Uint64
	staleEpochs   atomic.Uint64
}

type agent struct {
	host  int
	epoch uint32 // incarnation: stamped on every call, checked on every reply
	node  *transport.Node

	// mu guards cyc, the agent's one record: the §3.2 cycle, keyed by slot,
	// whose neighborQ entries also hold the RTTs of the heartbeats their
	// neighbors answered (detector.go); the timers, re-armed when their
	// cycle or sweep ends; and the flags. Lock order is rt.mu, then mu.
	mu           sync.Mutex
	cyc          core.Cycle
	probe, sweep event.Timer
	halted       atomic.Bool // stored under mu: nothing starts or re-arms
	kicked       bool        // a kick landed mid-cycle
	sweeping     bool        // a sweep runs: one at a time
	measured     int         // the pairs the last Measure step measured

	// The cycle in flight, carried from input to input: its call and what
	// it waits for, the walk's first hop and path (a copy of the reply's),
	// the slot it fired from, the round and its scratch (walk request, host
	// pairs, RTTs), the TMeasure body (the partner's targets, 8 bytes each)
	// and the next pair to measure.
	call    link
	wait    step
	to      int
	path    []int
	u       int
	round   core.Round
	sc      overlay.Scratch
	targets []byte
	leg     int
	// The sweep in flight: its call, the live neighbors' slots and hosts,
	// and the one pinged.
	beat link
	nbrs [][2]int
	next int
}

// step is what a cycle's call waits for.
type step uint8

const (
	walking step = iota
	relaying
	pinging
)

// link hands a call's outcome, its lent Path and Body copied into buffers
// of the link's own, to the loop that made the call when it comes inside
// Call, so a chain of calls iterates rather than nesting a frame per call.
type link struct {
	state atomic.Int32 // 1: a call is under way in call; 2: answered there
	in    transport.Inbound
	err   error
	done  func(transport.Inbound, error)
	path  []int
	body  []byte
}

// bind sets l.done: it leaves the outcome in l and, unless it came inside
// call, runs resume, which goes on from l, and ends the call's count.
func (rt *Runtime) bind(l *link, resume func()) {
	l.done = func(in transport.Inbound, err error) {
		l.in, l.err = in, err
		l.in.Msg = in.Msg.CopyInto(&l.path, &l.body)
		if !l.state.CompareAndSwap(1, 2) {
			resume()
			rt.exit()
		}
	}
}

// call makes a's call through l and reports whether its outcome, now in l,
// came inside Call; if not, l's resume goes on from it.
func (rt *Runtime) call(a *agent, l *link, to int, m transport.Message, retries int) bool {
	l.state.Store(1)
	rt.inputs.Add(1)
	a.node.Call(to, m, rt.cfg.PingTimeoutMS, retries, l.done)
	if l.state.CompareAndSwap(1, 0) {
		return false
	}
	rt.exit()
	return true
}

// New builds a runtime over net. Start must be called before the agents do
// anything.
func New(net transport.Network, cfg Config) *Runtime {
	cfg.fill()
	kernel := core.DefaultConfig(cfg.Policy)
	kernel.InitTimerMS = cfg.ProbeIntervalMS
	kernel.MinVar = cfg.MinVar
	rt := &Runtime{
		cfg:         cfg,
		kernel:      kernel,
		net:         net,
		members:     gnutella.Net{Config: gnutella.DefaultConfig()},
		r:           rng.New(cfg.Seed),
		agents:      make(map[int]*agent),
		incarnation: make(map[int]uint32),
	}
	rt.idle.L = &rt.mu
	rt.relays.New = func() any {
		j := new(relay)
		rt.bind(&j.link, func() { rt.answer(j, true) })
		return j
	}
	return rt
}

// Start builds the unstructured overlay over hosts ("based on a random
// assignment", as the paper's unstructured substrate joins) and brings one
// agent per host online. A Config that fill cannot make usable, or whose
// kernel core.Config.Validate refuses, is rejected here, before any agent
// spawns.
func (rt *Runtime) Start(hosts []int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.o != nil {
		return fmt.Errorf("propnode: already started")
	}
	if err := rt.cfg.validate(); err != nil {
		return err
	}
	if err := rt.kernel.Validate(); err != nil {
		return fmt.Errorf("propnode: kernel: %w", err)
	}
	o, err := gnutella.Build(hosts, rt.members.Config, rt.cfg.Lat, rt.r)
	if err != nil {
		return fmt.Errorf("propnode: build overlay: %w", err)
	}
	rt.o, rt.members.O = o, o
	rt.m = max(o.Logical.MinDegree(), 1)
	if rt.cfg.Clock == nil {
		for range max(runtime.GOMAXPROCS(0), 2) {
			rt.clocks = append(rt.clocks, event.NewWallClock())
		}
	}
	for _, h := range hosts {
		ep, err := rt.net.Open(h)
		if err != nil {
			return fmt.Errorf("propnode: open host %d: %w", h, err)
		}
		rt.spawnLocked(h, ep)
	}
	return nil
}

// spawnLocked starts host's agent, one incarnation later, on its open
// endpoint. Caller holds rt.mu.
func (rt *Runtime) spawnLocked(host int, ep transport.Endpoint) {
	rt.incarnation[host]++
	a := &agent{host: host, epoch: rt.incarnation[host], node: transport.NewNodeOn(ep, rt.cfg.Clock)}
	a.node.Handle(func(in transport.Inbound) {
		switch in.Msg.Type {
		case transport.TWalk:
			rt.handleWalk(a, in.Msg)
		case transport.TMeasure:
			rt.handleMeasure(a, in.Msg)
		}
	})
	rt.bind(&a.call, func() { rt.cycle(a, rt.resume(a)) })
	rt.bind(&a.beat, func() { rt.heartbeat(a, true) })
	// The paper's random initial neighborQ order, drawn from the runtime
	// stream so it is a function of Config.Seed.
	a.cyc.TimerMS = rt.cfg.ProbeIntervalMS
	a.cyc.Init(rt.o.Neighbors(rt.o.SlotOfHost(host)), rt.r)
	a.round = core.NewRound(&rt.kernel, rt.m, rt.r, &a.sc)
	rt.agents[host] = a
	// a is unreachable until rt.mu is released, and a timer fires after Reset.
	clock := rt.cfg.Clock
	if clock == nil {
		clock = rt.clocks[uint(host)%uint(len(rt.clocks))]
	}
	a.probe = clock.Timer(func() { rt.fire(a, rt.probeOnce) })
	a.sweep = clock.Timer(func() { rt.fire(a, rt.heartbeatOnce) })
	a.probe.Reset(event.Time(rt.r.Float64() * rt.cfg.ProbeIntervalMS)) // staggered
	a.sweep.Reset(event.Time(rt.r.Float64() * rt.cfg.HeartbeatIntervalMS))
}

// Overlay exposes the shared overlay. Safe to inspect after Stop, or under
// external quiescence; concurrent mutation is the runtime's. While agents
// are running, read through View instead.
func (rt *Runtime) Overlay() *overlay.Overlay { return rt.o }

// View runs f with the runtime lock held — the way to take consistent
// readings of the shared overlay while agents are live.
func (rt *Runtime) View(f func(o *overlay.Overlay)) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	f(rt.o)
}

// Counters snapshots protocol activity. The probe-cycle fields sum the
// cycle ends by core.Reason.
func (rt *Runtime) Counters() Counters {
	n := func(r core.Reason) uint64 { return rt.ends[r].Load() }
	return Counters{
		Probes:           rt.probes.Load(),
		Exchanges:        n(core.Exchanged),
		Rejected:         n(core.PartnerGone) + n(core.NoTrade) + n(core.BelowMinVar) + n(core.Refused),
		Stale:            n(core.Refused),
		WalkFailures:     n(core.NoFirstHop) + n(core.WalkFailed) + n(core.WalkLost),
		MeasureFailures:  n(core.Poisoned),
		Heartbeats:       rt.heartbeats.Load(),
		SuspectEvictions: rt.suspectEvicts.Load(),
		AutoRepairs:      rt.autoRepairs.Load(),
		Recovers:         rt.recovers.Load(),
		StaleEpochs:      rt.staleEpochs.Load(),
	}
}

// Stop halts every agent, waits until no input runs — the cycles and
// sweeps under way end, their calls answered or timed out; on an
// event.Engine, it steps the engine until then — then closes the nodes and
// stops the runtime's own clocks: no input can start unless an outsider
// sends.
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	if rt.stopped.Load() {
		rt.mu.Unlock()
		return
	}
	rt.stopped.Store(true)
	agents := rt.allAgentsLocked()
	rt.mu.Unlock()
	for _, a := range agents {
		a.halt()
	}
	if e, ok := rt.cfg.Clock.(*event.Engine); ok {
		for rt.inputs.Load() > 0 && e.Step() {
		}
	} else {
		rt.mu.Lock()
		for rt.inputs.Load() > 0 {
			rt.idle.Wait()
		}
		rt.mu.Unlock()
	}
	for _, a := range agents {
		a.node.Close()
	}
	for _, c := range rt.clocks {
		c.Stop()
	}
}

// fire runs input, a's timer firing, unless a is halted.
func (rt *Runtime) fire(a *agent, input func(*agent)) {
	rt.inputs.Add(1)
	if !a.halted.Load() {
		input(a)
	}
	rt.exit()
}

// exit ends one input's count, and wakes Stop at the last.
func (rt *Runtime) exit() {
	if rt.inputs.Add(-1) == 0 && rt.stopped.Load() {
		rt.mu.Lock()
		rt.idle.Broadcast()
		rt.mu.Unlock()
	}
}

// halt stops a's timers for good: no cycle or sweep of a's starts after it.
func (a *agent) halt() {
	a.mu.Lock()
	a.halted.Store(true)
	a.probe.Stop()
	a.sweep.Stop()
	a.mu.Unlock()
}

// kick applies §3.2's churn rule, neighbors changed: the timer returns to
// INIT_TIMER, at once between cycles, else when the running cycle ends.
func (a *agent) kick() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.halted.Load() {
		return
	}
	if !a.probe.Stop() { // the timer fired: a cycle runs, or is about to
		a.kicked = true
		return
	}
	a.probe.Reset(event.Time(a.cyc.Reset(&a.round).Delay))
}

// rearm ends a's cycle, if one ran, and arms its probe timer delayMS out —
// or at the INIT_TIMER a kick asked for meanwhile.
func (a *agent) rearm(delayMS float64) {
	a.mu.Lock()
	if a.kicked {
		a.kicked = false
		delayMS = a.cyc.Reset(&a.round).Delay
	}
	if !a.halted.Load() {
		a.probe.Reset(event.Time(delayMS))
	}
	a.mu.Unlock()
}

// probeOnce opens one §3.2 probe cycle for a: the cycle picks a first hop
// for the walk to a partner NHops away. An agent whose host holds no live
// slot is being stopped; it runs no cycle.
func (rt *Runtime) probeOnce(a *agent) {
	rt.mu.Lock()
	u := rt.o.SlotOfHost(a.host)
	if u < 0 || !rt.o.Alive(u) {
		rt.mu.Unlock()
		a.rearm(rt.cfg.ProbeIntervalMS)
		return
	}
	rt.probes.Add(1)
	// Live liveness eviction: a crashed neighbor never answers, so the
	// agent drops the stale reference before choosing a first hop — and
	// purges the corpse, as a detector sweep that found it would: once every
	// survivor's probe has evicted its edge, no sweep sees it any more.
	var affected []*agent
	if rt.o.EvictDeadNeighbors(u) > 0 {
		n, repaired, err := rt.repairLocked()
		if err == nil {
			rt.autoRepairs.Add(uint64(n))
		}
		affected = repaired
	}
	rt.sc.Nbrs = rt.o.Logical.AppendNeighbors(rt.sc.Nbrs[:0], u)
	a.mu.Lock()
	step := a.cyc.Fired(&a.round, rt.sc.Nbrs)
	a.mu.Unlock()
	if step.Kind == core.Walk {
		a.u, a.to = u, rt.o.HostOf(step.Hop)
		a.sc.Path = append(a.sc.Path[:0], u, step.Hop)
	}
	rt.mu.Unlock()
	kickAll(affected)
	rt.cycle(a, step)
}

// cycle does what step asks of a's cycle, and what the steps after it
// ask, until the cycle ends or waits on a reply that resume takes.
func (rt *Runtime) cycle(a *agent, step core.Step) {
	for {
		switch step.Kind {
		case core.Walk:
			a.wait = walking
			walk := transport.Message{Type: transport.TWalk, TTL: uint8(rt.kernel.NHops - 1), Epoch: a.epoch,
				Key: uint32(a.host), Path: a.sc.Path}
			if !rt.call(a, &a.call, a.to, walk, callRetries) {
				return
			}
			step = rt.walked(a)
		case core.Measure:
			step = rt.measure(a)
		case core.Commit:
			step = rt.commit(a)
		case core.End:
			a.rearm(rt.ended(step))
			return
		default: // Ignore, or waiting
			return
		}
	}
}

// resume takes the reply a's cycle waited for and returns the next step.
func (rt *Runtime) resume(a *agent) core.Step {
	switch a.wait {
	case walking:
		return rt.walked(a)
	case relaying:
		rt.relayed(a)
		return rt.legs(a, false)
	}
	return rt.legs(a, true)
}

// walked is the walk's outcome: Reached, with the partner at the reply's
// path's end planned under rt.mu; WalkLost if the call failed; else WalkStuck.
func (rt *Runtime) walked(a *agent) core.Step {
	reply := a.call.in
	// A reply addressed to a previous incarnation of this host is absorbed:
	// its walk state belongs to the pre-crash life.
	stale := a.call.err == nil && reply.Msg.Epoch != a.epoch
	if stale {
		rt.staleEpochs.Add(1)
	}
	if a.path = append(a.path[:0], reply.Msg.Path...); a.call.err != nil || stale || reply.Msg.TTL != 1 || len(a.path) < 2 {
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.call.err == nil {
			return a.cyc.WalkStuck(&a.round)
		}
		// The transport spent the walk's retransmits, and so the cycle's resends.
		step := a.cyc.WalkLost(&a.round)
		for ; step.Kind == core.Resend; step = a.cyc.WalkLost(&a.round) {
			a.cyc.Retransmit(step.Txn)
		}
		return step
	}
	rt.mu.Lock()
	a.mu.Lock()
	step := a.cyc.Reached(&a.round, rt.o, rt.heldSlot(a, a.u), a.path[len(a.path)-1], a.path)
	a.mu.Unlock()
	rt.mu.Unlock()
	return step
}

// commit executes the evaluation under rt.mu. The world may have moved
// while its RTTs were measured, so it lists the host pairs anew and
// refuses unless they are the ones measured: Refused, never a measurement
// failure (DESIGN.md §10).
func (rt *Runtime) commit(a *agent) core.Step {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// PROP-G re-lists the swap, PROP-O the same give/take: equal pairs mean
	// the RTTs still price this exchange. ExchangeNeighbors re-checks the
	// trade itself (adjacency, Theorem 1).
	ev, ok := &a.round.Ev, rt.heldSlot(a, a.u) >= 0 && rt.o.Alive(a.round.V)
	if ok {
		ev.List(rt.o, &rt.sc)
		ok = slices.Equal(rt.sc.Pairs, a.sc.Pairs) && ev.Commit(rt.o, a.path) == nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cyc.Committed(&a.round, ok)
}

// heldSlot returns u if a is its host's current agent and the host still
// backs live slot u, else -1. The incarnation guard: only the host's current
// agent may mutate the overlay, never an input of a crashed (or rejoined)
// one. Caller holds rt.mu.
func (rt *Runtime) heldSlot(a *agent, u int) int {
	if rt.agents[a.host] != a {
		rt.staleEpochs.Add(1)
		return -1
	}
	if rt.o.SlotOfHost(a.host) != u || !rt.o.Alive(u) {
		return -1
	}
	return u
}

// ended counts the cycle end step and returns the delay to the next cycle.
func (rt *Runtime) ended(step core.Step) float64 {
	rt.ends[step.Reason].Add(1)
	return step.Delay
}

// measure runs the Measure step into a.sc.RTT for the evaluation's host
// pairs, each from its first host's vantage point — "each side probes its
// own neighborhood" (§4.3), as messages on the wire: one TMeasure relay
// listing the target of every pair of the partner's, if any, then a's own
// legs.
func (rt *Runtime) measure(a *agent) core.Step {
	// SwapPairs and TradePairs measure from u's and v's hosts only, so every
	// pair that is not a's own is the partner's.
	partner := -1
	a.targets, a.leg = a.targets[:0], 0
	for _, pr := range a.sc.Pairs {
		if pr[0] != pr[1] && pr[0] != a.host {
			partner = pr[0]
			a.targets = binary.BigEndian.AppendUint64(a.targets, uint64(int64(pr[1])))
		}
	}
	if partner >= 0 {
		a.wait = relaying
		list := transport.Message{Type: transport.TMeasure, Epoch: a.epoch, Body: a.targets}
		if !rt.call(a, &a.call, partner, list, callRetries) {
			return core.Step{}
		}
		rt.relayed(a)
	}
	return rt.legs(a, false)
}

// relayed takes the partner's reply: its RTTs, decoded into a.sc.RTT at
// the partner's pairs in list order, NaN past the reply's end; none if the
// call failed, was refused, or was answered for another incarnation.
func (rt *Runtime) relayed(a *agent) {
	var body []byte
	switch reply := a.call.in.Msg; {
	case a.call.err != nil:
	case reply.Epoch != a.epoch:
		rt.staleEpochs.Add(1)
	case reply.TTL == 1:
		body = reply.Body
	}
	for k, pr := range a.sc.Pairs {
		if pr[0] != pr[1] && pr[0] != a.host {
			a.sc.RTT[k] = math.NaN()
			if len(body) >= 8 {
				a.sc.RTT[k], body = math.Float64frombits(binary.BigEndian.Uint64(body)), body[8:]
			}
		}
	}
}

// legs measures a's pairs in list order from a.leg on — pinged: the pong of
// a.leg's ping is in a.call — and feeds the cycle how many were measured
// before the first failure, or waits on a pong. The partner's prefix ends
// at its reply's first entry that is missing, ragged, or not a finite RTT
// ≥ 0.
func (rt *Runtime) legs(a *agent, pinged bool) core.Step {
	pairs, n := a.sc.Pairs, len(a.sc.Pairs)
	for k := a.leg; k < len(pairs) && n == len(pairs); k, a.leg, pinged = k+1, k+1, false {
		v, ok := 0.0, true
		switch pr := pairs[k]; {
		case pr[0] == pr[1]:
		case pr[0] == a.host:
			a.wait = pinging
			var ready bool
			if v, ok, ready = rt.rtt(a, &a.call, pr[1], pinged); !ready {
				return core.Step{}
			}
		default: // the partner's, relayed
			v = a.sc.RTT[k]
			ok = v >= 0 && v <= math.MaxFloat64 // not missing, negative, NaN or +Inf
		}
		if a.sc.RTT[k] = v; !ok {
			n = k
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.measured = n
	return a.cyc.Measured(&a.round, n)
}

// rtt is a's RTT to host, ok unless its ping failed: 0 to itself, the last
// answered heartbeat's for a neighbor its neighborQ remembers, else a ping
// through l — pinged: its pong is in l already. Not ready means the pong is
// awaited, and l's resume goes on from it.
func (rt *Runtime) rtt(a *agent, l *link, host int, pinged bool) (v float64, ok, ready bool) {
	if !pinged {
		if host == a.host {
			return 0, true, true
		}
		a.mu.Lock()
		v, ok = a.cyc.Recall(host)
		a.mu.Unlock()
		if ok {
			return v, true, true
		}
		if !rt.call(a, l, host, transport.Message{Type: transport.TPing}, callRetries) {
			return 0, false, false
		}
	}
	v, err := transport.PongRTT(l.in, l.err)
	return v, err == nil, true
}

// paths recycles forwarded walk paths: a Send keeps none once it returns.
var paths = sync.Pool{New: func() any { return new([]int) }}

// handleWalk forwards one hop of a probing walk, or closes it: back to the
// origin with TTL 1 at its last hop, 0 where it dead-ends.
func (rt *Runtime) handleWalk(a *agent, m transport.Message) {
	ok, fwd, next, to := len(m.Path) >= 2 && len(m.Path) < transport.MaxPath, false, 0, 0
	if ok {
		rt.mu.Lock()
		// A hop that is no longer who the sender addressed — it swapped or
		// died mid-flight — dead-ends the walk.
		my := rt.o.SlotOfHost(a.host)
		ok = my >= 0 && rt.o.Alive(my) && m.Path[len(m.Path)-1] == my
		if fwd = ok && m.TTL > 0; fwd {
			if next, ok = rt.o.WalkStep(my, m.Path, rt.r, &rt.sc); ok {
				to = rt.o.HostOf(next)
			}
		}
		rt.mu.Unlock()
	}
	if fwd && ok {
		p := paths.Get().(*[]int)
		*p = append(append((*p)[:0], m.Path...), next)
		_ = a.node.Send(to, transport.Message{Type: transport.TWalk, TTL: m.TTL - 1, Epoch: m.Epoch, Seq: m.Seq,
			Key: m.Key, Path: *p})
		paths.Put(p)
		return
	}
	// The epoch is echoed so the origin can reject stale-life replies.
	reply := transport.Message{Type: transport.TWalkReply, Epoch: m.Epoch, Seq: m.Seq, Key: m.Key, Path: m.Path}
	if ok {
		reply.TTL = 1
	}
	_ = a.node.Send(int(int32(m.Key)), reply)
}

// relay is one TMeasure being answered: the request over a copy of its host
// list, and one RTT per host measured so far, carried from one pong to the
// next. Records are recycled through the runtime's relays pool.
type relay struct {
	link
	a            *agent
	req          transport.Message
	hosts, reply []byte
}

// handleMeasure answers a TMeasure relay: it measures a's RTT to each
// listed host in list order (rtt) and replies with one RTT per host
// measured, stopping at the first ping that fails — the prober counts the
// prefix. A list that is empty, ragged (not a multiple of 8 bytes) or
// longer than a frame holds is refused with TTL 0.
func (rt *Runtime) handleMeasure(a *agent, m transport.Message) {
	if n := len(m.Body); n == 0 || n%8 != 0 || n > transport.MaxBody {
		_ = a.node.Send(m.Src, transport.Message{Type: transport.TMeasureReply, Epoch: m.Epoch, Seq: m.Seq})
		return
	}
	// The relay outlives m's lent Body: it answers from a copy of its own.
	j := rt.relays.Get().(*relay)
	j.a, j.req, j.reply = a, m, j.reply[:0]
	j.hosts = append(j.hosts[:0], m.Body...)
	j.req.Path, j.req.Body = nil, j.hosts
	rt.answer(j, false)
}

// answer measures j's hosts from the first one not yet measured on —
// pinged: its pong is in j.link — and replies once the list is walked or a
// ping failed, else waits on a pong.
func (rt *Runtime) answer(j *relay, pinged bool) {
	for ; len(j.reply) < len(j.req.Body); pinged = false {
		host := int(int64(binary.BigEndian.Uint64(j.req.Body[len(j.reply):])))
		v, ok, ready := rt.rtt(j.a, &j.link, host, pinged)
		if !ready {
			return
		}
		if !ok {
			break
		}
		j.reply = binary.BigEndian.AppendUint64(j.reply, math.Float64bits(v))
	}
	_ = j.a.node.Send(j.req.Src, transport.Message{
		Type: transport.TMeasureReply, TTL: 1, Epoch: j.req.Epoch, Seq: j.req.Seq, Body: j.reply,
	})
	j.a, j.req, j.in = nil, transport.Message{}, transport.Inbound{}
	rt.relays.Put(j)
}

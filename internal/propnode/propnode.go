// Package propnode runs PROP agents as goroutines speaking PROP-G/PROP-O
// over a transport.Network — the live counterpart of the discrete-event
// simulation in internal/core, and a second driver of the same probe cycle
// (core.Cycle, with overlay.WalkStep at each walk hop): this package owns
// the goroutines, the lock, the messages and the counters, never a protocol
// rule, and counts each cycle end by its core.Reason. Each physical host
// gets one agent: a transport.Node (message pump), a probe loop on the wall
// clock, and handlers that forward TTL walks and answer measurement RPCs.
// Every latency the protocol consumes is a real RTT measured by exchanging
// messages — the failure detector's heartbeats to each neighbor, remembered
// in its neighborQ entry, Node.Ping for any other host, and one TMeasure
// relay per exchange for the partner's side — no oracle lookups, and lost
// messages ride the transport's timeout + bounded-retransmit machinery.
//
// Concurrency model: the overlay (and the runtime RNG) live under one
// runtime mutex, each agent's core.Cycle under its own, taken after the
// runtime's when both are held. Message pumps take neither — pings are
// always answered — and walk-forwarding and measurement handlers run on
// spawned goroutines. No round trip holds either: an exchange plans under
// the lock, measures without it into buffers the agent owns, and commits
// under it again only if the host pairs it measured are still the ones the
// exchange moves — so evaluations overlap, and one the overlay moved under
// is rejected as stale. Churn is the overlay's own membership vocabulary,
// addressed by host: Join, Leave, Crash and Repair (a crashed host comes
// back by joining again, one incarnation later), over the unstructured
// membership of internal/gnutella.
//
// Key types: Runtime, Config. See DESIGN.md §10 ("Live runtime").
package propnode

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gnutella"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/transport"
)

// Config parameterizes a live runtime. Zero values select the defaults
// noted on each field.
type Config struct {
	// Policy selects PROP-G (host swap) or PROP-O (m-neighbor trade). The
	// walk TTL, warm-up length and back-off cap are core.DefaultConfig's
	// for it, and PROP-O trades the overlay's min degree at start.
	Policy core.Policy
	// MinVar is the exchange threshold (§4.2 derives 0).
	MinVar float64
	// ProbeIntervalMS is INIT_TIMER on the wall clock (default 50ms — scaled
	// down from the paper's minute so tests converge in test time).
	ProbeIntervalMS float64
	// PingTimeout is the first-attempt deadline of every call — pings,
	// heartbeats, measurement RPCs, walks (default 50ms; retransmits double
	// it).
	PingTimeout time.Duration
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
}

func (c *Config) fill() {
	if c.ProbeIntervalMS == 0 {
		c.ProbeIntervalMS = 50
	}
	if c.PingTimeout == 0 {
		c.PingTimeout = 50 * time.Millisecond
	}
	if c.HeartbeatIntervalMS == 0 {
		c.HeartbeatIntervalMS = 4 * c.ProbeIntervalMS
	}
	if c.Lat == nil {
		c.Lat = func(a, b int) float64 { return 0 }
	}
}

// maxTimerMS is the longest timer a time.Duration holds, in milliseconds.
const maxTimerMS = float64(math.MaxInt64 / time.Millisecond)

// validate rejects what fill cannot repair: an interval that is not
// positive, or whose longest timer (the probe's core.MaxTimerFactor ×
// INIT_TIMER) overflows, spins a timer loop; a negative deadline fails.
func (c *Config) validate() error {
	switch {
	case !(c.ProbeIntervalMS > 0 && c.ProbeIntervalMS <= maxTimerMS/core.MaxTimerFactor):
		return fmt.Errorf("propnode: ProbeIntervalMS = %v, want in (0, %v]", c.ProbeIntervalMS, maxTimerMS/core.MaxTimerFactor)
	case !(c.HeartbeatIntervalMS > 0 && c.HeartbeatIntervalMS <= maxTimerMS):
		return fmt.Errorf("propnode: HeartbeatIntervalMS = %v, want in (0, %v]", c.HeartbeatIntervalMS, maxTimerMS)
	case c.PingTimeout < 0:
		return fmt.Errorf("propnode: PingTimeout = %v, want >= 0", c.PingTimeout)
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

// Counters tallies the runtime's protocol activity. Snapshot via
// Runtime.Counters.
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
	agents      map[int]*agent  // by host
	incarnation map[int]uint32  // per-host epoch, survives Crash, Leave and rejoin
	m           int             // resolved PROP-O trade size
	sc          overlay.Scratch // for work done within one hold of mu, like o and r

	wg      sync.WaitGroup
	stopped bool

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
	stop  chan struct{}
	kick  chan struct{} // neighbor-change notification: reset the timer

	// mu guards cyc, the agent's one record: the §3.2 cycle, keyed by slot,
	// whose neighborQ entries also hold the RTTs of the heartbeats their
	// neighbors answered (detector.go). Lock order is rt.mu, then mu.
	mu  sync.Mutex
	cyc core.Cycle
	// round and sc hold the probe cycle in flight across the unlocked round
	// trips: the partner, the evaluation, the walk, trade lists, host pairs
	// and RTTs. Only the probe goroutine touches them.
	round core.Round
	sc    overlay.Scratch
	// targets is the body of the Measure step's one TMeasure: the target of
	// each of the partner's pairs, 8 bytes of host ID each, in list order.
	// Only the probe goroutine touches it.
	targets []byte
}

// New builds a runtime over net. Start must be called before the agents do
// anything.
func New(net transport.Network, cfg Config) *Runtime {
	cfg.fill()
	kernel := core.DefaultConfig(cfg.Policy)
	kernel.InitTimerMS = cfg.ProbeIntervalMS
	kernel.MinVar = cfg.MinVar
	return &Runtime{
		cfg:         cfg,
		kernel:      kernel,
		net:         net,
		members:     gnutella.Net{Config: gnutella.DefaultConfig()},
		r:           rng.New(cfg.Seed),
		agents:      make(map[int]*agent),
		incarnation: make(map[int]uint32),
	}
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
	a := &agent{
		host:  host,
		epoch: rt.incarnation[host],
		node:  transport.NewNode(ep),
		stop:  make(chan struct{}),
		kick:  make(chan struct{}, 1),
	}
	a.node.Handle(func(in transport.Inbound) {
		// Handlers must not block the pump: forwarders and measurement
		// relays take locks and make their own calls, so they get their own
		// goroutines.
		switch in.Msg.Type {
		case transport.TWalk:
			go rt.handleWalk(a, in.Msg)
		case transport.TMeasure:
			go rt.handleMeasure(a, in.Msg)
		}
	})
	// The paper's random initial neighborQ order, drawn from the runtime
	// stream so it is a function of Config.Seed.
	a.cyc.TimerMS = rt.cfg.ProbeIntervalMS
	a.cyc.Init(rt.o.Neighbors(rt.o.SlotOfHost(host)), rt.r)
	a.round = core.NewRound(&rt.kernel, rt.m, rt.r, &a.sc)
	rt.agents[host] = a
	rt.wg.Add(1)
	stagger := time.Duration(rt.r.Float64()*rt.cfg.ProbeIntervalMS) * time.Millisecond
	go rt.runAgent(a, stagger)
	rt.wg.Add(1)
	hbStagger := time.Duration(rt.r.Float64()*rt.cfg.HeartbeatIntervalMS) * time.Millisecond
	go rt.runDetector(a, hbStagger)
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

// Stop quiesces every agent (probe loops first, then pumps) and waits.
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	if rt.stopped {
		rt.mu.Unlock()
		return
	}
	rt.stopped = true
	agents := rt.allAgentsLocked()
	rt.mu.Unlock()
	for _, a := range agents {
		close(a.stop)
	}
	rt.wg.Wait()
	for _, a := range agents {
		a.node.Close()
	}
}

// runAgent is one agent's probe loop: stagger, then fire every timer
// interval. The interval follows the cycle's Markov back-off and is reset by
// churn kicks.
func (rt *Runtime) runAgent(a *agent, stagger time.Duration) {
	defer rt.wg.Done()
	timer := time.NewTimer(stagger)
	defer timer.Stop()
	for {
		var next float64
		select {
		case <-a.stop:
			return
		case <-a.kick:
			// §3.2 churn rule: neighbors changed — reset to INIT_TIMER.
			a.mu.Lock()
			next = a.cyc.Reset(&a.round).Delay
			a.mu.Unlock()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
			next = rt.probeOnce(a)
		}
		timer.Reset(time.Duration(next * float64(time.Millisecond)))
	}
}

// probeOnce runs one §3.2 probe cycle for a and returns the delay to the
// next: the cycle picks a first hop, the wire walks to a partner NHops away,
// and evaluate runs the rest. An agent whose host holds no live slot is
// being stopped; it runs no cycle.
func (rt *Runtime) probeOnce(a *agent) (nextMS float64) {
	rt.mu.Lock()
	u := rt.o.SlotOfHost(a.host)
	if u < 0 || !rt.o.Alive(u) {
		rt.mu.Unlock()
		return rt.cfg.ProbeIntervalMS
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
	var sHost int
	var walkReq transport.Message
	if step.Kind == core.Walk {
		sHost = rt.o.HostOf(step.Hop)
		a.sc.Path = append(a.sc.Path[:0], u, step.Hop)
		walkReq = transport.Message{
			Type:  transport.TWalk,
			TTL:   uint8(rt.kernel.NHops - 1),
			Epoch: a.epoch,
			Key:   uint32(a.host),
			Path:  a.sc.Path,
		}
	}
	rt.mu.Unlock()
	kickAll(affected)
	if step.Kind != core.Walk {
		return rt.ended(step)
	}

	reply, err := a.node.Call(sHost, walkReq, rt.cfg.PingTimeout, callRetries)
	if err == nil && reply.Msg.Epoch != a.epoch {
		// A reply addressed to a previous incarnation of this host: absorb
		// it — its walk state belongs to the pre-crash life.
		rt.staleEpochs.Add(1)
		err = fmt.Errorf("propnode: stale-epoch walk reply")
	}
	if err != nil || reply.Msg.TTL != 1 || len(reply.Msg.Path) < 2 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return rt.ended(a.cyc.WalkStuck(&a.round))
	}
	return rt.ended(rt.evaluate(a, u, reply.Msg.Path))
}

// evaluate feeds a's cycle the partner at the end of path, a walk from slot
// u, and does what the cycle asks to its end, holding rt.mu to plan and to
// commit only. The world may move meanwhile (another exchange, churn), so
// the commit lists the host pairs anew and refuses unless they are the ones
// measured: Refused, never a measurement failure (DESIGN.md §10).
func (rt *Runtime) evaluate(a *agent, u int, path []int) core.Step {
	rt.mu.Lock()
	a.mu.Lock()
	step := a.cyc.Reached(&a.round, rt.o, rt.heldSlot(a, u), path[len(path)-1], path)
	a.mu.Unlock()
	rt.mu.Unlock()
	for {
		switch step.Kind {
		case core.Measure:
			// Round trips, one after another: the pumps answer pings and
			// relays without rt.mu anyway (see the package comment).
			n := rt.measure(a)
			a.mu.Lock()
			step = a.cyc.Measured(&a.round, n)
			a.mu.Unlock()
		case core.Commit:
			rt.mu.Lock()
			// PROP-G re-lists the swap, PROP-O the same give/take: equal pairs
			// mean the RTTs still price this exchange. ExchangeNeighbors
			// re-checks the trade itself (adjacency, Theorem 1).
			ev, ok := &a.round.Ev, rt.heldSlot(a, u) >= 0 && rt.o.Alive(a.round.V)
			if ok {
				ev.List(rt.o, &rt.sc)
				ok = slices.Equal(rt.sc.Pairs, a.sc.Pairs) && ev.Commit(rt.o, path) == nil
			}
			a.mu.Lock()
			step = a.cyc.Committed(&a.round, ok)
			a.mu.Unlock()
			rt.mu.Unlock()
		default:
			return step
		}
	}
}

// heldSlot returns u if a is its host's current agent and the host still
// backs live slot u, else -1. The incarnation guard: only the host's current
// agent may mutate the overlay, never a goroutine of a crashed (or rejoined)
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

// measure fills a.sc.RTT for the evaluation's host pairs and returns how
// many of them, in list order, were measured before the first failure. Each
// pair is measured from its first host's vantage point — "each side probes
// its own neighborhood" (§4.3), as messages on the wire: one TMeasure relay
// listing the target of every pair of the partner's, then a's own legs (rtt).
// A host is 0 from itself, unasked.
func (rt *Runtime) measure(a *agent) int {
	// SwapPairs and TradePairs measure from u's and v's hosts only, so every
	// pair that is not a's own is the partner's.
	pairs, rtt, partner := a.sc.Pairs, a.sc.RTT, -1
	a.targets = a.targets[:0]
	for _, pr := range pairs {
		if pr[0] != pr[1] && pr[0] != a.host {
			partner = pr[0]
			a.targets = binary.BigEndian.AppendUint64(a.targets, uint64(int64(pr[1])))
		}
	}
	got := rt.relay(a, partner)
	for k, pr := range pairs {
		switch {
		case pr[0] == pr[1]:
			rtt[k] = 0
		case pr[0] == a.host:
			var err error
			if rtt[k], err = rt.rtt(a, pr[1]); err != nil {
				return k
			}
		default:
			// The partner's prefix ends at its reply's first entry that is
			// missing, ragged, or not a finite RTT ≥ 0.
			if len(got) < 8 {
				return k
			}
			v := math.Float64frombits(binary.BigEndian.Uint64(got))
			if !(v >= 0 && v <= math.MaxFloat64) { // negative, NaN or +Inf
				return k
			}
			rtt[k], got = v, got[8:]
		}
	}
	return len(pairs)
}

// rtt returns a's RTT to host: 0 to itself, the last answered heartbeat's
// for a neighbor its neighborQ remembers, else one ping.
func (rt *Runtime) rtt(a *agent, host int) (float64, error) {
	if host == a.host {
		return 0, nil
	}
	a.mu.Lock()
	v, ok := a.cyc.Recall(host)
	a.mu.Unlock()
	if ok {
		return v, nil
	}
	return a.node.Ping(host, rt.cfg.PingTimeout, callRetries)
}

// relay sends host partner one TMeasure listing a.targets and returns its
// reply's RTTs — none if the call failed, was refused, or was answered for
// another incarnation. An empty list sends nothing.
func (rt *Runtime) relay(a *agent, partner int) []byte {
	if len(a.targets) == 0 {
		return nil
	}
	reply, err := a.node.Call(partner, transport.Message{Type: transport.TMeasure, Epoch: a.epoch, Body: a.targets},
		rt.cfg.PingTimeout, callRetries)
	if err != nil {
		return nil
	}
	if reply.Msg.Epoch != a.epoch {
		rt.staleEpochs.Add(1)
		return nil
	}
	if reply.Msg.TTL != 1 {
		return nil
	}
	return reply.Msg.Body
}

// handleWalk forwards one hop of a probing walk (or closes it). Runs on its
// own goroutine, never on the pump.
func (rt *Runtime) handleWalk(a *agent, m transport.Message) {
	origin := int(int32(m.Key))
	reply := func(ok bool, path []int) {
		ttl := uint8(0)
		if ok {
			ttl = 1
		}
		_ = a.node.Send(origin, transport.Message{
			Type:  transport.TWalkReply,
			TTL:   ttl,
			Epoch: m.Epoch, // echoed so the origin can reject stale-life replies
			Seq:   m.Seq,
			Key:   m.Key,
			Path:  path,
		})
	}
	if len(m.Path) < 2 || len(m.Path) > transport.MaxPath-1 {
		reply(false, m.Path)
		return
	}

	rt.mu.Lock()
	my := rt.o.SlotOfHost(a.host)
	if my < 0 || !rt.o.Alive(my) || m.Path[len(m.Path)-1] != my {
		// The world moved under the walk (we swapped or died mid-flight):
		// this hop is no longer who the sender addressed. Dead-end it.
		rt.mu.Unlock()
		reply(false, m.Path)
		return
	}
	if m.TTL == 0 {
		rt.mu.Unlock()
		reply(true, m.Path)
		return
	}
	next, ok := rt.o.WalkStep(my, m.Path, rt.r, &rt.sc)
	if !ok {
		rt.mu.Unlock()
		reply(false, m.Path)
		return
	}
	nextHost := rt.o.HostOf(next)
	rt.mu.Unlock()

	_ = a.node.Send(nextHost, transport.Message{
		Type:  transport.TWalk,
		TTL:   m.TTL - 1,
		Epoch: m.Epoch,
		Seq:   m.Seq,
		Key:   m.Key,
		Path:  append(append([]int(nil), m.Path...), next),
	})
}

// handleMeasure answers a TMeasure relay: measure a's RTT to each listed
// host in list order (rtt: a neighbor's from the neighborQ, any other by a
// ping) and reply with one RTT per host measured, stopping at the first ping
// that fails — the prober counts the prefix. A list that is empty, ragged
// (not a multiple of 8 bytes) or longer than a frame holds is refused with
// TTL 0. Runs on its own goroutine and takes no runtime lock — the whole
// deadlock-freedom argument rests on that (a.mu guards a queue read only).
func (rt *Runtime) handleMeasure(a *agent, m transport.Message) {
	reply := transport.Message{Type: transport.TMeasureReply, Epoch: m.Epoch, Seq: m.Seq}
	if n := len(m.Body); n > 0 && n%8 == 0 && n <= transport.MaxBody {
		// A duplicated delivery shares m.Body with its twin's handler, so
		// the RTTs go into a buffer of their own.
		reply.TTL, reply.Body = 1, make([]byte, 0, n)
		for i := 0; i < n; i += 8 {
			rtt, err := rt.rtt(a, int(int64(binary.BigEndian.Uint64(m.Body[i:]))))
			if err != nil {
				break
			}
			reply.Body = binary.BigEndian.AppendUint64(reply.Body, math.Float64bits(rtt))
		}
	}
	_ = a.node.Send(m.Src, reply)
}

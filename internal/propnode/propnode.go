// Package propnode runs PROP agents as goroutines speaking PROP-G/PROP-O
// over a transport.Network — the live counterpart of the discrete-event
// simulation in internal/core, and a second driver of the same peer kernel
// (core.Peer, core.Exchange, overlay.WalkStep): this package owns the
// goroutines, the lock, the messages and the counters, never a protocol
// rule. Each physical host gets one agent: a transport.Node (message pump),
// a probe loop on the wall clock, and handlers that forward TTL walks and
// answer measurement RPCs. Every latency the protocol consumes is a real
// RTT measured by exchanging messages (Node.Ping or a TMeasure relay) — no
// oracle lookups — and lost messages ride the transport's timeout +
// bounded-retransmit machinery.
//
// Concurrency model: the overlay (and the runtime RNG) live under one
// mutex. Message pumps never take it — pings are always answered — and
// walk-forwarding and measurement handlers run on spawned goroutines. No
// agent holds it across a round trip: an exchange plans under the lock,
// measures without it into buffers the agent owns, and commits under it
// again only if the host pairs it measured are still the ones the exchange
// moves — so evaluations overlap, and one the overlay moved under is
// rejected as stale. Churn (join, leave, crash, repair) mirrors the
// unstructured membership of internal/gnutella.
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
	// measurement RPCs, walks (default 50ms; retransmits double it).
	PingTimeout time.Duration
	// Retries bounds retransmissions per call (default 3).
	Retries int
	// LinksPerJoin is the unstructured membership degree (default 4).
	LinksPerJoin int
	// HeartbeatIntervalMS is the failure detector's sweep period (default
	// 4x ProbeIntervalMS — detection only has to beat the suspicion bound,
	// not the probe cadence). Each sweep pings every live neighbor once.
	HeartbeatIntervalMS float64
	// HeartbeatTimeout is the base deadline of one heartbeat ping (default
	// PingTimeout). Suspicion stretches it adaptively: a neighbor at
	// suspicion level s gets deadline HeartbeatTimeout << min(s, 3), so a
	// slow-but-alive peer earns grace instead of eviction.
	HeartbeatTimeout time.Duration
	// SuspicionThreshold is the accrual bound of the failure detector: a
	// neighbor whose heartbeats miss this many consecutive sweeps is evicted
	// and membership repair runs. 0 selects the default (3); negative
	// disables the detector entirely (PR-6 behavior: eviction waits for an
	// RPC failure during a probe cycle).
	SuspicionThreshold int
	// Lat is the ground-truth latency model recorded in the overlay for
	// metrics like MeanLinkLatency; the protocol itself never reads it. Nil
	// means metrics report zero (e.g. over real UDP, where there is no
	// ground truth to compare against).
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
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.LinksPerJoin == 0 {
		c.LinksPerJoin = 4
	}
	if c.HeartbeatIntervalMS == 0 {
		c.HeartbeatIntervalMS = 4 * c.ProbeIntervalMS
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = c.PingTimeout
	}
	if c.SuspicionThreshold == 0 {
		c.SuspicionThreshold = 3
	}
	if c.Lat == nil {
		c.Lat = func(a, b int) float64 { return 0 }
	}
}

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
	// Probes counts timer firings that attempted a probe cycle.
	Probes uint64
	// Exchanges counts executed peer-exchanges.
	Exchanges uint64
	// Rejected counts evaluated-but-unprofitable (or raced) exchanges.
	Rejected uint64
	// WalkFailures counts probing walks that dead-ended or timed out.
	WalkFailures uint64
	// Stale counts profitable evaluations that did not commit because the
	// overlay moved while their RTTs were measured: the host pairs listed
	// again at commit time differed, the overlay refused the commit, or the
	// agent or a slot was gone. Each is also counted in Rejected.
	Stale uint64
	// MeasureFailures counts Var evaluations aborted by a failed RTT probe.
	MeasureFailures uint64
	// Heartbeats counts failure-detector pings sent.
	Heartbeats uint64
	// SuspectEvictions counts neighbor links dropped by the failure detector
	// (confirmed corpses and suspicion-threshold evictions alike).
	SuspectEvictions uint64
	// AutoRepairs counts corpses repaired by detector-triggered membership
	// repair (as opposed to an explicit Repair call).
	AutoRepairs uint64
	// Recovers counts successful Runtime.Recover rejoins.
	Recovers uint64
	// StaleEpochs counts messages and exchange attempts absorbed by the
	// incarnation epoch guard — traffic from a pre-crash life of an agent
	// that must not leak into its recovered one.
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
	incarnation map[int]uint32  // per-host epoch, survives Crash/Recover
	m           int             // resolved PROP-O trade size
	sc          overlay.Scratch // for work done within one hold of mu, like o and r

	wg      sync.WaitGroup
	stopped bool

	probes        atomic.Uint64
	exchanges     atomic.Uint64
	rejected      atomic.Uint64
	stales        atomic.Uint64
	walkFails     atomic.Uint64
	measureFails  atomic.Uint64
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

	// peer is the §3.2 kernel state (neighborQ, trials, timer), keyed by
	// slot. Seeded under rt.mu at spawn, then owned by the probe goroutine.
	peer core.Peer
	// sc holds the probe cycle in flight across the unlocked round trips:
	// the walk, the evaluation's trade lists, host pairs and RTTs. Only the
	// probe goroutine touches it.
	sc overlay.Scratch

	// susp is the failure detector's per-neighbor suspicion accrual, keyed
	// by host, and hbLive the hosts of the sweep in progress. Both are owned
	// exclusively by the agent's detector goroutine.
	susp   map[int]int
	hbLive []int
}

// New builds a runtime over net. Start must be called before the agents do
// anything.
func New(net transport.Network, cfg Config) *Runtime {
	cfg.fill()
	kernel := core.DefaultConfig(cfg.Policy)
	kernel.InitTimerMS = cfg.ProbeIntervalMS
	return &Runtime{
		cfg:         cfg,
		kernel:      kernel,
		net:         net,
		members:     gnutella.Net{Config: gnutella.Config{LinksPerJoin: cfg.LinksPerJoin}},
		r:           rng.New(cfg.Seed),
		agents:      make(map[int]*agent),
		incarnation: make(map[int]uint32),
	}
}

// Start builds the unstructured overlay over hosts ("based on a random
// assignment", as the paper's unstructured substrate joins) and brings one
// agent per host online.
func (rt *Runtime) Start(hosts []int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.o != nil {
		return fmt.Errorf("propnode: already started")
	}
	o, err := gnutella.Build(hosts, rt.members.Config, rt.cfg.Lat, rt.r)
	if err != nil {
		return fmt.Errorf("propnode: build overlay: %w", err)
	}
	rt.o, rt.members.O = o, o
	rt.m = max(o.Logical.MinDegree(), 1)
	for _, h := range hosts {
		if err := rt.spawnLocked(h); err != nil {
			return err
		}
	}
	return nil
}

// spawnLocked opens host's endpoint and starts its agent. Caller holds rt.mu.
func (rt *Runtime) spawnLocked(host int) error {
	ep, err := rt.net.Open(host)
	if err != nil {
		return fmt.Errorf("propnode: open host %d: %w", host, err)
	}
	rt.incarnation[host]++
	a := &agent{
		host:  host,
		epoch: rt.incarnation[host],
		node:  transport.NewNode(ep),
		stop:  make(chan struct{}),
		kick:  make(chan struct{}, 1),
		susp:  make(map[int]int),
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
	a.peer.TimerMS = rt.cfg.ProbeIntervalMS
	a.peer.Init(rt.o.Neighbors(rt.o.SlotOfHost(host)), rt.r)
	rt.agents[host] = a
	rt.wg.Add(1)
	stagger := time.Duration(rt.r.Float64()*rt.cfg.ProbeIntervalMS) * time.Millisecond
	go rt.runAgent(a, stagger)
	if rt.cfg.SuspicionThreshold > 0 {
		rt.wg.Add(1)
		hbStagger := time.Duration(rt.r.Float64()*rt.cfg.HeartbeatIntervalMS) * time.Millisecond
		go rt.runDetector(a, hbStagger)
	}
	return nil
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

// Counters snapshots protocol activity.
func (rt *Runtime) Counters() Counters {
	return Counters{
		Probes:           rt.probes.Load(),
		Exchanges:        rt.exchanges.Load(),
		Rejected:         rt.rejected.Load(),
		Stale:            rt.stales.Load(),
		WalkFailures:     rt.walkFails.Load(),
		MeasureFailures:  rt.measureFails.Load(),
		Heartbeats:       rt.heartbeats.Load(),
		SuspectEvictions: rt.suspectEvicts.Load(),
		AutoRepairs:      rt.autoRepairs.Load(),
		Recovers:         rt.recovers.Load(),
		StaleEpochs:      rt.staleEpochs.Load(),
	}
}

// M returns the resolved PROP-O trade size.
func (rt *Runtime) M() int { return rt.m }

// Stop quiesces every agent (probe loops first, then pumps) and waits.
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	if rt.stopped {
		rt.mu.Unlock()
		return
	}
	rt.stopped = true
	agents := make([]*agent, 0, len(rt.agents))
	for _, a := range rt.agents {
		agents = append(agents, a)
	}
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
// interval. The interval follows the kernel's Markov back-off (Peer.Finish)
// and is reset by churn kicks.
func (rt *Runtime) runAgent(a *agent, stagger time.Duration) {
	defer rt.wg.Done()
	timer := time.NewTimer(stagger)
	defer timer.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-a.kick:
			// §3.2 churn rule: neighbors changed — reset to INIT_TIMER.
			a.peer.TimerMS = rt.cfg.ProbeIntervalMS
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Duration(a.peer.TimerMS * float64(time.Millisecond)))
			continue
		case <-timer.C:
		}
		next := a.peer.Finish(rt.probeOnce(a), rt.kernel)
		timer.Reset(time.Duration(next * float64(time.Millisecond)))
	}
}

// probeOnce runs one §3.2 probe cycle for a: pick a first hop from the
// queue, walk the wire to a partner NHops away, evaluate Var from measured
// RTTs, exchange if profitable. Reports success (an executed exchange).
func (rt *Runtime) probeOnce(a *agent) bool {
	rt.probes.Add(1)

	rt.mu.Lock()
	u := rt.o.SlotOfHost(a.host)
	if u < 0 || !rt.o.Alive(u) {
		rt.mu.Unlock()
		return false
	}
	// Live liveness eviction: a crashed neighbor never answers, so the
	// agent drops the stale reference before choosing a first hop.
	rt.o.EvictDeadNeighbors(u)
	rt.sc.Nbrs = rt.o.Logical.AppendNeighbors(rt.sc.Nbrs[:0], u)
	a.peer.Reconcile(rt.sc.Nbrs)
	s, ok := a.peer.FirstHop()
	if !ok {
		rt.mu.Unlock()
		rt.walkFails.Add(1)
		return false
	}
	sHost := rt.o.HostOf(s)
	a.sc.Path = append(a.sc.Path[:0], u, s)
	walkReq := transport.Message{
		Type:  transport.TWalk,
		TTL:   uint8(rt.kernel.NHops - 1),
		Epoch: a.epoch,
		Key:   uint32(a.host),
		Path:  a.sc.Path,
	}
	rt.mu.Unlock()

	reply, err := a.node.Call(sHost, walkReq, rt.cfg.PingTimeout, rt.cfg.Retries)
	if err == nil && reply.Msg.Epoch != a.epoch {
		// A reply addressed to a previous incarnation of this host: absorb
		// it — its walk state belongs to the pre-crash life.
		rt.staleEpochs.Add(1)
		err = fmt.Errorf("propnode: stale-epoch walk reply")
	}
	if err != nil || reply.Msg.TTL != 1 || len(reply.Msg.Path) < 2 {
		rt.walkFails.Add(1)
		return false
	}
	path := reply.Msg.Path
	return rt.attemptExchange(a, u, path[len(path)-1], path)
}

// attemptExchange evaluates (u,v) over live measurements in three steps and
// holds rt.mu in the first and the last only: core.Plan lists the host
// pairs into the agent's own buffers; the round trips run without the lock;
// then the pairs are listed anew, and the exchange commits only if they are
// the pairs that were measured. The world may move while the RTTs are in
// flight (another exchange, churn); an evaluation it overtook is Stale,
// never a measurement failure (DESIGN.md §10 "Exchanges off the lock").
func (rt *Runtime) attemptExchange(a *agent, u, v int, path []int) bool {
	rt.mu.Lock()
	// Incarnation guard: a goroutine of a crashed-and-recovered (or plain
	// crashed) agent must never commit two-phase-swap state into the
	// bijection — only the host's current agent may mutate the overlay.
	if rt.agents[a.host] != a {
		rt.mu.Unlock()
		rt.staleEpochs.Add(1)
		rt.rejected.Add(1)
		return false
	}
	// The walk ran without the lock, so the world may have moved.
	if rt.o.SlotOfHost(a.host) != u || u == v || !rt.o.Alive(u) || !rt.o.Alive(v) {
		rt.mu.Unlock()
		rt.rejected.Add(1)
		return false
	}
	ev, ok := core.Plan(rt.o, rt.cfg.Policy, u, v, path, rt.m, rt.r, &a.sc)
	rt.mu.Unlock()
	if !ok {
		rt.rejected.Add(1)
		return false
	}

	// One round trip after another, and no lock held: the pumps answer
	// pings and relays without rt.mu anyway (see the package comment).
	measured := len(a.sc.Pairs)
	for k, pr := range a.sc.Pairs {
		var err error
		if a.sc.RTT[k], err = rt.measureFrom(a, pr[0], pr[1]); err != nil {
			measured = k
			break
		}
	}
	switch out, _ := ev.Judge(a.sc.RTT, measured, rt.cfg.MinVar); out {
	case core.Poisoned:
		rt.measureFails.Add(1)
		return false
	case core.Rejected:
		rt.rejected.Add(1)
		return false
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.agents[a.host] != a {
		rt.staleEpochs.Add(1)
		return rt.stale()
	}
	if rt.o.SlotOfHost(a.host) != u || !rt.o.Alive(u) || !rt.o.Alive(v) {
		return rt.stale()
	}
	// PROP-G re-lists the swap, PROP-O the same give/take: equal pairs mean
	// the RTTs still price this exchange. ExchangeNeighbors re-checks the
	// trade itself (adjacency, Theorem 1).
	ev.List(rt.o, &rt.sc)
	if !slices.Equal(rt.sc.Pairs, a.sc.Pairs) || ev.Commit(rt.o, path) != nil {
		return rt.stale()
	}
	rt.exchanges.Add(1)
	return true
}

// stale counts a profitable evaluation the overlay moved under.
func (rt *Runtime) stale() bool {
	rt.stales.Add(1)
	rt.rejected.Add(1)
	return false
}

// measureFrom returns the live RTT between hosts x and y, measured from x's
// vantage point: a's own ping when x is a's host, otherwise a TMeasure
// relay asking x to probe y — "each side probes its own neighborhood"
// (§4.3), as messages on the wire. A host is 0 from itself, unasked.
func (rt *Runtime) measureFrom(a *agent, x, y int) (float64, error) {
	if x == y {
		return 0, nil
	}
	if x == a.host {
		return a.node.Ping(y, rt.cfg.PingTimeout, rt.cfg.Retries)
	}
	body := make([]byte, 8)
	binary.BigEndian.PutUint64(body, uint64(int64(y)))
	reply, err := a.node.Call(x, transport.Message{Type: transport.TMeasure, Epoch: a.epoch, Body: body},
		rt.cfg.PingTimeout, rt.cfg.Retries)
	if err != nil {
		return 0, err
	}
	if reply.Msg.Epoch != a.epoch {
		rt.staleEpochs.Add(1)
		return 0, fmt.Errorf("propnode: stale-epoch measure reply %d→%d", x, y)
	}
	if reply.Msg.TTL != 1 || len(reply.Msg.Body) != 8 {
		return 0, fmt.Errorf("propnode: measure relay %d→%d failed", x, y)
	}
	rtt := math.Float64frombits(binary.BigEndian.Uint64(reply.Msg.Body))
	if !(rtt >= 0 && rtt <= math.MaxFloat64) { // negative, NaN or +Inf
		return 0, fmt.Errorf("propnode: measure relay %d→%d reported %v", x, y, rtt)
	}
	return rtt, nil
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

// handleMeasure answers a TMeasure relay: ping the requested host, report
// the RTT. Runs on its own goroutine and takes no runtime lock — the whole
// deadlock-freedom argument rests on that.
func (rt *Runtime) handleMeasure(a *agent, m transport.Message) {
	fail := func() {
		_ = a.node.Send(m.Src, transport.Message{Type: transport.TMeasureReply, TTL: 0, Epoch: m.Epoch, Seq: m.Seq})
	}
	if len(m.Body) != 8 {
		fail()
		return
	}
	target := int(int64(binary.BigEndian.Uint64(m.Body)))
	var rtt float64
	if target != a.host {
		var err error
		rtt, err = a.node.Ping(target, rt.cfg.PingTimeout, rt.cfg.Retries)
		if err != nil {
			fail()
			return
		}
	}
	body := make([]byte, 8)
	binary.BigEndian.PutUint64(body, math.Float64bits(rtt))
	_ = a.node.Send(m.Src, transport.Message{Type: transport.TMeasureReply, TTL: 1, Epoch: m.Epoch, Seq: m.Seq, Body: body})
}

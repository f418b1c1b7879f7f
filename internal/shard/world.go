package shard

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// Engine is one sharded simulation: the immutable world (logical topology,
// latency tables, shard partition) plus the mutable struct-of-arrays
// peer state and the per-shard event heaps. Build with New, execute with
// Run. An Engine is single-use: Run consumes it.
type Engine struct {
	cfg       Config
	net       netsim.Config
	n         int // peers
	nShards   int
	lookahead float64
	seed      uint64

	// Logical overlay over slots, CSR form. Slots are permanent; peers
	// migrate across them via swaps.
	lOff []int32
	lNbr []int32

	// The latency plane (estLat). up[p] is peer p's uplink; core[a*nRouters+b]
	// is the landmark bound between transit routers a and b.
	up       []uplink
	core     []float64
	nRouters int

	// routerShard is the static partition, transit domain mod shard count,
	// and routerDomain the transit domain (the partition cut), both per
	// transit router: a peer's entry is its uplink router's.
	routerShard, routerDomain []int32

	// Mutable struct-of-arrays peer state. A handler running in shard s
	// only ever writes indices belonging to peers of shard s.
	slotOf []int32  // slot currently claimed by each peer
	ver    []uint32 // per-peer swap count; guards stale commit proposals
	pstate []uint8  // 0 idle, 1 awaiting walk report, 2 awaiting commit ack
	pctr   []uint32 // stateless-RNG draw counter
	oseq   []uint32 // per-peer send counter (ordering key)
	occRow []int32  // flat [peer*maxDeg+i]: believed occupant of the i-th
	// neighbor slot of the peer's current slot

	// Fault/churn state, allocated only when faultsOn (14 B/peer of
	// tombstone + liveness bookkeeping on top of the ~90 B/peer base).
	faultsOn bool
	fc       FaultConfig      // normalized schedule (windows defaulted)
	inj      *faults.Injector // stateless loss/dup/jitter/link-outage hashes
	dead     []bool           // crash-stop tombstones
	txn      []uint32         // per-peer probe-cycle counter (stale-reply guard)
	probeNbr []uint8          // first-hop cache index of the current cycle
	failCnt  []uint8          // flat [peer*maxDeg+i]: consecutive timeout strikes
	probeTO  float64          // probe-cycle timeout (walk legs + report leg)
	commitTO float64          // two-phase-swap timeout (commit + ack legs)

	shards []*shardRun
	extra  Stats // engine-level tallies (snapshot conflicts)
	fs     *floodSource
	ran    bool
}

// shardRun is one engine's event state: its heap, one outbox per
// destination shard (drained at each epoch barrier), and its share of the
// run tallies.
type shardRun struct {
	id    int32
	heap  msgHeap
	out   [][]msg
	stats Stats
}

// uplink places one peer: its host's distance to the transit router its stub
// domain hangs off, rounded up to float32, and that router.
type uplink struct {
	off    float32
	router int32
}

// New builds the world for one run: generates the physical transit-stub
// network, derives the latency plane and releases the physical graph,
// builds the static logical overlay (ring plus random chords, degree ≤ 8),
// places peers on slots by a random permutation, and seeds every occupant
// cache. Cost is dominated by network generation; the latency plane is one
// pass over each stub domain (netsim.Anchors) plus one Dijkstra per transit
// domain over the router core alone. At 10⁶ peers expect a few seconds and
// ~90 MB retained.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	var net netsim.Config
	if cfg.Net != nil {
		net = *cfg.Net
	} else {
		net = netsim.ScaleTS(cfg.Peers)
	}
	if cfg.Shards == 0 {
		cfg.Shards = net.TransitDomains
	}
	if err := cfg.validate(net); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	world, err := netsim.Generate(net, r)
	if err != nil {
		return nil, err
	}
	n := len(world.StubHosts)
	e := &Engine{
		cfg:       cfg,
		net:       net,
		n:         n,
		nShards:   cfg.Shards,
		lookahead: net.CrossDomainFloorMS(),
		seed:      cfg.Seed,
	}

	maxCoord := e.buildLatency(world)
	// The physical world has served its purpose; only the latency plane and
	// the partition survive into the run.
	e.buildLogical(r)
	e.initPeers(r)
	if err := e.initFaults(maxCoord); err != nil {
		return nil, err
	}
	e.fs = newFloodSource(e)
	return e, nil
}

// buildLatency derives the latency plane from the physical world; the
// landmarks are the first router of every transit domain. A peer's host
// hangs off one router through one uplink (netsim.Anchors), so its landmark
// coordinates are its offset plus its router's, and a router-to-router
// shortest path never enters a stub domain, so the routers' coordinates come
// from Dijkstras over the transit core alone. It returns the largest
// peer-to-landmark coordinate, half the bound on every estimate.
func (e *Engine) buildLatency(world *netsim.Network) (maxCoord float64) {
	fz := world.Graph.Frozen()
	anchors, _ := netsim.Anchors(fz, world.StubDomain)
	nR := e.net.TotalTransit()
	k := e.net.TransitDomains
	coreG := graph.New(nR)
	for u := 0; u < nR; u++ {
		nbr, wt := fz.Row(u)
		for i, v := range nbr {
			if int(v) > u && int(v) < nR {
				coreG.MustAddEdge(u, int(v), wt[i])
			}
		}
	}
	// c[r*k+l] is router r's distance to landmark l, rounded UP to float32 —
	// widened sums never undercut true distances, which keeps estLat an upper
	// bound and the cross-shard lookahead assertion airtight.
	c, dist, maxC := make([]float32, nR*k), make([]float64, nR), make([]float64, nR)
	coreFz := coreG.Freeze()
	for l := 0; l < k; l++ {
		coreFz.ShortestPathsInto(l*e.net.TransitNodesPerDomain, dist)
		for r, d := range dist {
			c[r*k+l] = roundUp32(d)
			maxC[r] = max(maxC[r], float64(c[r*k+l]))
		}
	}
	e.nRouters = nR
	e.core = make([]float64, nR*nR)
	for a := 0; a < nR; a++ {
		for b := 0; b < nR; b++ {
			m := math.Inf(1)
			for l := 0; l < k; l++ {
				m = min(m, float64(c[a*k+l])+float64(c[b*k+l]))
			}
			e.core[a*nR+b] = m
		}
	}
	e.routerShard, e.routerDomain = make([]int32, nR), make([]int32, nR)
	for r := range e.routerDomain {
		e.routerDomain[r] = int32(world.Domain[r])
		e.routerShard[r] = int32(world.Domain[r] % e.nShards)
	}
	e.up = make([]uplink, e.n)
	for p, host := range world.StubHosts {
		a := anchors[host]
		e.up[p] = uplink{off: roundUp32(a.Off), router: a.Router}
		maxCoord = max(maxCoord, float64(e.up[p].off)+maxC[a.Router])
	}
	return maxCoord
}

// initFaults normalizes the fault schedule and allocates the churn state.
// A nil or all-zero schedule leaves the engine on the fault-free path:
// faultsOn stays false, nothing is allocated, and Run never schedules a
// timeout or crash event — which is what keeps the zero-knob schedule
// byte-identical to the pre-fault engine.
func (e *Engine) initFaults(maxCoord float64) error {
	if !e.cfg.Faults.enabled() {
		return nil
	}
	e.faultsOn = true
	e.fc = *e.cfg.Faults
	if e.fc.CrashFrac > 0 && e.fc.CrashStartMS == 0 && e.fc.CrashStopMS == 0 {
		// Default churn window: the middle third of the horizon, so the
		// stream shows pre-churn convergence, the hit, and the recovery.
		e.fc.CrashStartMS = e.cfg.HorizonMS / 3
		e.fc.CrashStopMS = 2 * e.cfg.HorizonMS / 3
	}
	inj, err := faults.NewInjector(faults.Config{
		Seed:             e.seed ^ shardFaultSalt,
		LossProb:         e.fc.LossProb,
		DupProb:          e.fc.DupProb,
		JitterMS:         e.fc.JitterMS,
		LinkFailProb:     e.fc.LinkFailProb,
		LinkFailPeriodMS: e.fc.LinkFailPeriodMS,
		// The domain partition is evaluated in-engine over routerDomain
		// (a flat array beats a 10⁶-entry host set); the injector only
		// owns the loss/dup/jitter/link-outage hashes.
	})
	if err != nil {
		return err
	}
	e.inj = inj
	e.dead = make([]bool, e.n)
	e.txn = make([]uint32, e.n)
	e.probeNbr = make([]uint8, e.n)
	e.failCnt = make([]uint8, e.n*maxDeg)

	// Timeout bounds from the worst-case one-way leg: estLat is at most
	// twice the largest peer-to-landmark coordinate, plus the jitter cap. A
	// probe cycle is WalkHops walk legs plus the report leg; a commit round
	// is the proposal plus the acknowledgment. The +1 ms slack keeps timeout
	// firings strictly after the last possible reply, so a timeout that
	// finds its cycle still open proves the reply was dropped, not late
	// (see handleCommitTO).
	maxLeg := 2*maxCoord + e.fc.JitterMS
	e.probeTO = float64(e.cfg.WalkHops+1)*maxLeg + 1
	e.commitTO = 2*maxLeg + 1
	return nil
}

// shardFaultSalt separates the fault-fate hash stream from the
// world-generation and AL-estimator streams derived from the same seed.
const shardFaultSalt = 0x73686172642d666c // "shard-fl"

// crashSchedule reports whether peer p crash-stops this run and, if so,
// when: a stateless hash of (seed, peer) decides both, so the schedule is
// a pure function of the configuration — independent of shard layout, and
// computable for any peer by any shard.
func (e *Engine) crashSchedule(p int32) (at float64, crashes bool) {
	if e.fc.CrashFrac <= 0 {
		return 0, false
	}
	if u01(crashHash(e.seed, p, 1)) >= e.fc.CrashFrac {
		return 0, false
	}
	span := e.fc.CrashStopMS - e.fc.CrashStartMS
	return e.fc.CrashStartMS + u01(crashHash(e.seed, p, 2))*span, true
}

// crashHash mixes (seed, peer, salt) with a SplitMix64-style finalizer —
// the same construction as draw, but counterless, so consulting it never
// perturbs the peer's protocol randomness.
func crashHash(seed uint64, p int32, salt uint64) uint64 {
	x := seed ^ 0xc5a5e5d1b3a91f37
	for _, w := range [...]uint64{uint64(uint32(p)), salt} {
		x += w + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// partitioned reports whether the domain-partition cut separates peers p
// and q at time nowMS.
func (e *Engine) partitioned(p, q int32, nowMS float64) bool {
	if e.fc.PartitionStopMS <= e.fc.PartitionStartMS {
		return false
	}
	if nowMS < e.fc.PartitionStartMS || nowMS >= e.fc.PartitionStopMS {
		return false
	}
	pd := int32(e.fc.PartitionDomain)
	return (e.routerDomain[e.up[p].router] == pd) != (e.routerDomain[e.up[q].router] == pd)
}

// shardOf returns the shard that owns peer p.
func (e *Engine) shardOf(p int32) int32 { return e.routerShard[e.up[p].router] }

// buildLogical constructs the static overlay: a ring over all n slots (so
// the overlay is connected and the AL plane total) plus one initiated
// random chord per slot, skipped when either endpoint is already at
// maxDeg. Average degree ≈ 2 + 2·chords-per-peer.
func (e *Engine) buildLogical(r *rng.Rand) {
	n := e.n
	adj := make([][]int32, n)
	for s := 0; s < n; s++ {
		adj[s] = make([]int32, 0, maxDeg)
	}
	addEdge := func(a, b int32) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for s := 0; s < n; s++ {
		addEdge(int32(s), int32((s+1)%n))
	}
	hasEdge := func(a, b int32) bool {
		for _, x := range adj[a] {
			if x == b {
				return true
			}
		}
		return false
	}
	for s := 0; s < n; s++ {
		for c := 0; c < defaultChordsPerPeer; c++ {
			for try := 0; try < 8; try++ {
				t := int32(r.Intn(n))
				if t == int32(s) || len(adj[s]) >= maxDeg || len(adj[t]) >= maxDeg || hasEdge(int32(s), t) {
					continue
				}
				addEdge(int32(s), t)
				break
			}
		}
	}
	e.lOff = make([]int32, n+1)
	total := 0
	for s := 0; s < n; s++ {
		total += len(adj[s])
	}
	e.lNbr = make([]int32, 0, total)
	for s := 0; s < n; s++ {
		e.lOff[s] = int32(len(e.lNbr))
		e.lNbr = append(e.lNbr, adj[s]...)
	}
	e.lOff[n] = int32(len(e.lNbr))
}

// initPeers places peers on slots by a random permutation — the
// deliberately location-oblivious starting point PROP optimizes away from
// — and fills every occupant cache with the exact initial truth.
func (e *Engine) initPeers(r *rng.Rand) {
	n := e.n
	e.slotOf = make([]int32, n)
	perm := r.Perm(n)
	peerOf := make([]int32, n)
	for p, s := range perm {
		e.slotOf[p] = int32(s)
		peerOf[s] = int32(p)
	}
	e.ver = make([]uint32, n)
	e.pstate = make([]uint8, n)
	e.pctr = make([]uint32, n)
	e.oseq = make([]uint32, n)
	e.occRow = make([]int32, n*maxDeg)
	for p := 0; p < n; p++ {
		s := e.slotOf[p]
		row := e.lNbr[e.lOff[s]:e.lOff[s+1]]
		for i, x := range row {
			e.occRow[p*maxDeg+i] = peerOf[x]
		}
	}
}

// deg returns the logical degree of slot s.
func (e *Engine) deg(s int32) int {
	return int(e.lOff[s+1] - e.lOff[s])
}

// nbrs returns slot s's logical neighbor slots.
func (e *Engine) nbrs(s int32) []int32 {
	return e.lNbr[e.lOff[s]:e.lOff[s+1]]
}

// estLat returns the landmark upper bound on the physical latency between
// peers p and q: min over landmarks of c[l][p]+c[l][q], where a peer's
// coordinate is its uplink offset plus its router's (buildLatency), so the
// minimum is the two offsets plus the routers' core entry. Every coordinate
// of a whole-millisecond world is an integer, so these float64 sums are
// exact in any order and the result is the per-peer landmark minimum bit for
// bit; rounded up to float32, the bound never drops below the true
// shortest-path distance — the property the cross-shard lookahead depends
// on.
func (e *Engine) estLat(p, q int32) float64 {
	if p == q {
		return 0
	}
	a, b := e.up[p], e.up[q]
	return (float64(a.off) + float64(b.off)) + e.core[int(a.router)*e.nRouters+int(b.router)]
}

// roundUp32 converts x to the nearest float32 at or above it.
func roundUp32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// draw returns the next stateless random value of peer p: a SplitMix64-
// style hash of (seed, peer, per-peer counter). Peer randomness is
// therefore a pure function of the seed and the peer's own event history —
// nothing about shard layout or scheduling can perturb it.
func (e *Engine) draw(p int32) uint64 {
	c := e.pctr[p]
	e.pctr[p] = c + 1
	x := e.seed + uint64(uint32(p))*0x9E3779B97F4A7C15 + uint64(c)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// u01 maps a draw to [0,1).
func u01(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Peers reports the simulated population (stub hosts of the generated
// world — Config.Peers rounded up to whole stub domains).
func (e *Engine) Peers() int { return e.n }

// ShardCount reports the number of parallel engines.
func (e *Engine) ShardCount() int { return e.nShards }

// LookaheadMS reports the conservative epoch bound derived from the
// physical preset.
func (e *Engine) LookaheadMS() float64 { return e.lookahead }

// NetConfig reports the resolved physical preset the world was generated
// from.
func (e *Engine) NetConfig() netsim.Config { return e.net }

// errReRun reports a second Run call on a consumed engine.
var errReRun = fmt.Errorf("shard: engine already consumed by Run")

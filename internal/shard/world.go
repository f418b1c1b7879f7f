package shard

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// Engine is one sharded simulation: the immutable world (logical topology,
// latency tables, shard partition) plus the mutable struct-of-arrays
// peer state and the per-shard event queues. Build with New, execute with
// Run. An Engine is single-use: Run consumes it.
type Engine struct {
	cfg       Config
	n         int // peers
	nShards   int
	lookahead float64
	seed      uint64

	// Logical overlay over slots, CSR form. Slots are permanent; peers
	// migrate across them via swaps.
	lOff []int32
	lNbr []int32

	// The latency plane (estLat). up[p] is peer p's uplink; core[a*nRouters+b]
	// is the exact distance between transit routers a and b.
	up       []uplink
	core     []float64
	nRouters int

	// routerShard is the static partition, transit domain mod shard count,
	// and routerDomain the transit domain (the partition cut), both per
	// transit router in core-table order: a peer's entry is its uplink
	// router's.
	routerShard, routerDomain []int32

	// Mutable struct-of-arrays peer state. A handler running in shard s
	// only ever writes indices belonging to peers of shard s.
	slotOf []int32    // slot currently claimed by each peer
	txn    []core.Txn // swap version and open probe cycle
	pctr   []uint32   // stateless-RNG draw counter
	oseq   []uint32   // per-peer send counter (ordering key)
	occRow []int32    // flat [peer*maxDeg+i]: believed occupant of the i-th
	// neighbor slot of the peer's current slot
	dead     []bool  // crash-stop tombstones
	probeNbr []uint8 // first-hop cache index of the current cycle
	failCnt  []uint8 // flat [peer*maxDeg+i]: consecutive timeout strikes

	fc       FaultConfig      // the schedule, copied from Config.Faults
	inj      *faults.Injector // stateless loss/dup/jitter hashes
	probeTO  float64          // probe-cycle timeout (walk legs + report leg)
	commitTO float64          // two-phase-swap timeout (commit + ack legs)

	shards []*shardRun
	extra  Stats // engine-level tallies (snapshot conflicts)
	fs     *floodSource
	ran    bool
}

// shardRun is one engine's event state: its event queue, one outbox per
// destination shard (drained at each epoch barrier), and its share of the
// run tallies.
type shardRun struct {
	id    int32
	queue msgQueue
	out   [][]msg
	stats Stats
}

// uplink places one peer: its host's distance to the transit router its stub
// domain hangs off — whole milliseconds, so float32 holds it exactly — and
// that router's index in the core table.
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
// router over the router core alone (netsim.CoreTable). At 10⁶ peers expect a
// few seconds and ~100 MB retained.
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
		n:         n,
		nShards:   cfg.Shards,
		lookahead: net.CrossDomainFloorMS(),
		seed:      cfg.Seed,
	}

	maxLeg := e.buildLatency(world)
	// The physical world has served its purpose; only the latency plane and
	// the partition survive into the run.
	e.buildLogical(r)
	e.initPeers(r)
	if err := e.initFaults(maxLeg); err != nil {
		return nil, err
	}
	e.fs = newFloodSource(e)
	return e, nil
}

// buildLatency derives the latency plane from the physical world: every
// peer's uplink offset and router (netsim.Anchors) and the exact router table
// (netsim.CoreTable), which the sequential engine's oracle reads too. It
// returns the largest one-way leg, 2·max offset + max table entry.
func (e *Engine) buildLatency(world *netsim.Network) (maxLeg float64) {
	fz := world.Graph.Frozen()
	anchors, _ := netsim.Anchors(fz, world.StubDomain)
	e.core, e.nRouters = netsim.CoreTable(fz, anchors)
	e.routerShard, e.routerDomain = make([]int32, e.nRouters), make([]int32, e.nRouters)
	for u, a := range anchors {
		if a.Dom < 0 {
			e.routerDomain[a.Core] = int32(world.Domain[u])
			e.routerShard[a.Core] = int32(world.Domain[u] % e.nShards)
		}
	}
	e.up = make([]uplink, e.n)
	maxOff := 0.0
	for p, host := range world.StubHosts {
		a := anchors[host]
		e.up[p] = uplink{off: float32(a.Off), router: a.Core}
		maxOff = max(maxOff, a.Off)
	}
	return 2*maxOff + slices.Max(e.core)
}

// initFaults copies the fault schedule and derives the timeouts.
func (e *Engine) initFaults(maxLeg float64) error {
	e.fc = *e.cfg.Faults
	inj, err := faults.NewInjector(faults.Config{
		Seed:     e.seed ^ shardFaultSalt,
		LossProb: e.fc.LossProb,
		DupProb:  e.fc.DupProb,
		JitterMS: e.fc.JitterMS,
		// The domain partition is evaluated in-engine over routerDomain
		// (a flat array beats a 10⁶-entry host set); the injector only
		// owns the loss/dup/jitter hashes.
	})
	if err != nil {
		return err
	}
	e.inj = inj

	// Timeout bounds from the worst-case one-way leg: the largest estLat
	// (buildLatency) plus the jitter cap. A probe cycle is walkHops walk legs
	// plus the report leg; a commit round is the proposal plus the
	// acknowledgment. The +1 ms slack keeps timeout firings strictly after
	// the last possible reply, so a timeout that finds its cycle still open
	// proves the reply was dropped, not late (core.Txn). The explicit
	// conversion rounds the product, so no GOARCH fuses it with the + 1.
	maxLeg += e.fc.JitterMS
	e.probeTO = float64(float64(walkHops+1)*maxLeg) + 1
	e.commitTO = 2*maxLeg + 1
	return nil
}

// shardFaultSalt separates the fault-fate hash stream from the
// world-generation and AL-estimator streams derived from the same seed.
const shardFaultSalt = 0x73686172642d666c // "shard-fl"

// partitioned reports whether the domain-partition cut, transit domain 0
// against the rest, separates peers p and q at time nowMS.
func (e *Engine) partitioned(p, q int32, nowMS float64) bool {
	if e.fc.PartitionStopMS <= e.fc.PartitionStartMS {
		return false
	}
	if nowMS < e.fc.PartitionStartMS || nowMS >= e.fc.PartitionStopMS {
		return false
	}
	return (e.routerDomain[e.up[p].router] == 0) != (e.routerDomain[e.up[q].router] == 0)
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
	e.txn = make([]core.Txn, n)
	e.pctr = make([]uint32, n)
	e.oseq = make([]uint32, n)
	e.occRow = make([]int32, n*maxDeg)
	e.dead = make([]bool, n)
	e.probeNbr = make([]uint8, n)
	e.failCnt = make([]uint8, n*maxDeg)
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

// estLat returns the latency between peers p and q: their two uplink
// offsets plus their routers' entry of the exact core table. Between peers of
// different stub domains that is the physical distance, the bits
// netsim.Oracle.Latency returns, since whole-millisecond sums are exact in
// any order. Two peers of one stub domain are priced through their router
// too, an upper bound: exact intra-domain tables at 1 B an entry would add
// 32² B a stub domain, 8 MB at 262 144 peers, a byte budget ROADMAP item 2
// holds.
func (e *Engine) estLat(p, q int32) float64 {
	if p == q {
		return 0
	}
	a, b := e.up[p], e.up[q]
	return (float64(a.off) + float64(b.off)) + e.core[int(a.router)*e.nRouters+int(b.router)]
}

// draw returns the next stateless random value of peer p: a SplitMix64-
// style hash of (seed, peer, per-peer counter). Peer randomness is
// therefore a pure function of the seed and the peer's own event history —
// nothing about shard layout or scheduling can perturb it.
func (e *Engine) draw(p int32) uint64 {
	c := e.pctr[p]
	e.pctr[p] = c + 1
	return rng.Mix(e.seed + uint64(uint32(p))*0x9E3779B97F4A7C15 + uint64(c)*0xBF58476D1CE4E5B9)
}

// u01 maps a draw to [0,1).
func u01(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Peers reports the simulated population (stub hosts of the generated
// world — Config.Peers rounded up to whole stub domains).
func (e *Engine) Peers() int { return e.n }

// errReRun reports a second Run call on a consumed engine.
var errReRun = fmt.Errorf("shard: engine already consumed by Run")

package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// Engine is one sharded simulation: the immutable world (logical topology,
// landmark coordinates, shard partition) plus the mutable struct-of-arrays
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

	// coord[p*nLandmarks+l] is peer p's shortest-path distance to landmark l
	// in the physical topology, rounded UP to float32 — widened sums
	// therefore never undercut true distances, which keeps estLat a true
	// upper bound and the cross-shard lookahead assertion airtight. The
	// layout is peer-major: one peer's whole landmark vector (16 float32 =
	// 64 B) is a single cache line, and estLat is the hottest loop in the
	// engine.
	coord      []float32
	nLandmarks int

	// shardOfPeer is the static partition: transit domain mod shard count.
	shardOfPeer []int32
	// domainOfPeer is each peer's transit domain, kept (only under faults)
	// so the domain-partition cut is a pure array lookup per message.
	domainOfPeer []uint8

	// Mutable struct-of-arrays peer state. A handler running in shard s
	// only ever writes indices belonging to peers of shard s.
	slotOf []int32  // slot currently claimed by each peer
	ver    []uint32 // per-peer swap count; guards stale commit proposals
	pstate []uint8  // 0 idle, 1 awaiting walk report, 2 awaiting commit ack
	pctr   []uint32 // stateless-RNG draw counter
	oseq   []uint32 // per-peer send counter (ordering key)
	occRow []int32  // flat [peer*maxDeg+i]: believed occupant of the i-th
	// neighbor slot of the peer's current slot

	// Fault/churn state, allocated only when faultsOn (15 B/peer of
	// tombstone + liveness bookkeeping on top of the ~150 B/peer base).
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

// New builds the world for one run: generates the physical transit-stub
// network, computes landmark coordinates and releases the physical graph,
// builds the static logical overlay (ring plus random chords, degree ≤ 8),
// places peers on slots by a random permutation, and seeds every occupant
// cache. Cost is dominated by network generation plus one Dijkstra per
// transit domain; at 10⁶ peers expect a few seconds and ~150 MB retained.
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

	// Landmark coordinates: the first transit router of every domain. One
	// Dijkstra per landmark over the physical graph, projected down to the
	// peer index space so the graph itself can be garbage collected.
	fz := world.Graph.Frozen()
	k := net.TransitDomains
	e.nLandmarks = k
	e.coord = make([]float32, n*k)
	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	ch := make(chan int, k)
	for l := 0; l < k; l++ {
		ch <- l
	}
	close(ch)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			dist := make([]float64, fz.NumVertices())
			for l := range ch {
				fz.ShortestPathsInto(l*net.TransitNodesPerDomain, dist)
				for p, host := range world.StubHosts {
					e.coord[p*k+l] = roundUp32(dist[host])
				}
			}
		}()
	}
	wg.Wait()

	e.shardOfPeer = make([]int32, n)
	for p, host := range world.StubHosts {
		e.shardOfPeer[p] = int32(world.Domain[host] % cfg.Shards)
	}
	if cfg.Faults.enabled() {
		e.domainOfPeer = make([]uint8, n)
		for p, host := range world.StubHosts {
			e.domainOfPeer[p] = uint8(world.Domain[host])
		}
	}
	// The physical world has served its purpose; only coordinates and the
	// partition survive into the run.

	e.buildLogical(r)
	e.initPeers(r)
	if err := e.initFaults(); err != nil {
		return nil, err
	}
	e.fs = newFloodSource(e)
	return e, nil
}

// initFaults normalizes the fault schedule and allocates the churn state.
// A nil or all-zero schedule leaves the engine on the fault-free path:
// faultsOn stays false, nothing is allocated, and Run never schedules a
// timeout or crash event — which is what keeps the zero-knob schedule
// byte-identical to the pre-fault engine.
func (e *Engine) initFaults() error {
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
		// The domain partition is evaluated in-engine over domainOfPeer
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
	// twice the largest landmark coordinate, plus the jitter cap. A probe
	// cycle is WalkHops walk legs plus the report leg; a commit round is
	// the proposal plus the acknowledgment. The +1 ms slack keeps timeout
	// firings strictly after the last possible reply, so a timeout that
	// finds its cycle still open proves the reply was dropped, not late
	// (see handleCommitTO).
	maxCoord := 0.0
	for _, c := range e.coord {
		if v := float64(c); v > maxCoord {
			maxCoord = v
		}
	}
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
	pd := uint8(e.fc.PartitionDomain)
	return (e.domainOfPeer[p] == pd) != (e.domainOfPeer[q] == pd)
}

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
// peers p and q: min over landmarks of c[l][p]+c[l][q], computed in
// float64 over the rounded-up float32 coordinates so the bound never drops
// below the true shortest-path distance — the property the cross-shard
// lookahead depends on. Four independent running minima (plus a remainder
// loop: Config.Net admits any landmark count) break the one-compare
// dependency chain; a minimum does not depend on association, so the
// result is the single-accumulator one bit for bit.
func (e *Engine) estLat(p, q int32) float64 {
	if p == q {
		return 0
	}
	k := e.nLandmarks
	a := e.coord[int(p)*k : (int(p)+1)*k]
	b := e.coord[int(q)*k : (int(q)+1)*k]
	m0, m1, m2, m3 := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
	l := 0
	for ; l+4 <= k; l += 4 {
		a4, b4 := a[l:l+4:l+4], b[l:l+4:l+4]
		m0 = min(m0, float64(a4[0])+float64(b4[0]))
		m1 = min(m1, float64(a4[1])+float64(b4[1]))
		m2 = min(m2, float64(a4[2])+float64(b4[2]))
		m3 = min(m3, float64(a4[3])+float64(b4[3]))
	}
	for ; l < k; l++ {
		m0 = min(m0, float64(a[l])+float64(b[l]))
	}
	return min(m0, m1, m2, m3)
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

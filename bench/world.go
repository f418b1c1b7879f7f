package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sync/atomic"
)

// variant is one curve of a Fig. 5(a)/6(a) panel: PROP-G with a TTL walk of
// nhops, or with a uniformly random partner.
type variant struct {
	label  string
	nhops  int
	random bool
}

var panelVariants = []variant{
	{label: "nhops=1", nhops: 1},
	{label: "nhops=2", nhops: 2},
	{label: "nhops=4", nhops: 4},
	{label: "random", random: true},
}

// coreConfig is the paper's PROP-G parameterization for one variant, as
// internal/experiment builds it for the fig5a/fig6a panels.
func (v variant) coreConfig() CoreConfig {
	cfg := DefaultCoreConfig(PROPG)
	cfg.NHops = v.nhops
	cfg.RandomProbe = v.random
	return cfg
}

// startProtocol starts the variant's PROP-G instance over o on a fresh
// engine, its randomness drawn from seed. A nil injector is the fault-free
// fast path.
func startProtocol(o *Overlay, v variant, seed uint64, inj *Injector) (*Protocol, *SimEngine, error) {
	p, err := NewProtocol(o, v.coreConfig(), NewRand(seed))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", v.label, err)
	}
	p.AttachFaults(inj)
	eng := NewSimEngine()
	p.Start(eng)
	return p, eng, nil
}

// subSeed derives the seed of one independent stream (world w, purpose k) of
// a pass from the pass seed, SplitMix64-style, so neighbouring --seed values
// give unrelated worlds.
func subSeed(seed uint64, w, k int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(1+w*64+k)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// physWorld is one generated physical network with its warmed oracle.
type physWorld struct {
	net    *Network
	oracle *Oracle
	hosts  []int
	// A traced world counts oracle activity after the warm-up: rows computed
	// (Oracle.SetInstruments, always attached: a nil check per query), and
	// point queries, by whichever of two seams is cheap for the workload.
	// The sequential and the live workload build over seam(), one atomic add
	// per query. gnutella-flood's parallel floods make ~10⁸ queries a pass,
	// where even an idle wrapper costs 7 %; it builds over the bare oracle
	// and attaches the instruments' query counter outside the flood phases
	// (instrument), extrapolating those from a calibration.
	traced    bool
	computes  ObsCounter
	queries   ObsCounter
	seamCalls atomic.Uint64
}

// newPhysWorld generates a ts-large network from seed, picks nHosts stub
// hosts (all of them when nHosts ≤ 0) and precomputes their oracle rows, so
// the run phase never pays a cold Dijkstra.
func newPhysWorld(cfg NetConfig, seed uint64, nHosts int, tr *tracer, parent, w int) (*physWorld, error) {
	r := NewRand(seed)
	sp := tr.begin("netsim.generate", parent, w)
	net, err := Generate(cfg, r)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generate network: %w", err)
	}
	hosts := append([]int(nil), net.StubHosts...)
	if nHosts > 0 && nHosts < len(hosts) {
		r.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		hosts = hosts[:nHosts]
	}
	pw := &physWorld{net: net, oracle: NewOracleWith(net, OracleOptions{}), hosts: hosts, traced: tr != nil}
	sp = tr.begin("netsim.precompute", parent, w)
	pw.oracle.Precompute(hosts)
	tr.end(sp)
	pw.instrument(false)
	return pw, nil
}

// seam is the overlay.LatencyFunc the sequential and live workloads build
// over: the oracle itself untraced, a counting wrapper traced.
func (pw *physWorld) seam() LatencyFunc {
	if !pw.traced {
		return pw.oracle.Latency
	}
	return func(a, b int) float64 {
		pw.seamCalls.Add(1)
		return pw.oracle.Latency(a, b)
	}
}

// instrument attaches a traced world's oracle instruments: the computes
// counter, and the query counter when asked. It may only be called while no
// query is in flight (the driver goroutine, between phases).
func (pw *physWorld) instrument(queries bool) {
	switch {
	case !pw.traced:
	case queries:
		pw.oracle.SetInstruments(&pw.queries, nil, &pw.computes, nil)
	default:
		pw.oracle.SetInstruments(nil, nil, &pw.computes, nil)
	}
}

// counted reports the queries either seam has seen so far.
func (pw *physWorld) counted() uint64 { return pw.queries.Value() + pw.seamCalls.Load() }

// digest folds run outputs into the printed sim_digest (FNV-64a).
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

// placement folds an overlay's final slot→host map.
func (d digest) placement(o *Overlay) {
	for s := 0; s < o.NumSlots(); s++ {
		d.u64(uint64(int64(o.HostOf(s))))
	}
}

func (d digest) counters(c CoreCounters) {
	d.u64(c.Probes, c.WalkMessages, c.MeasureMessages, c.NotifyMessages, c.Exchanges, c.Rejected,
		c.WalkFailures, c.Timeouts, c.Retries, c.Evictions, c.DupsDropped, c.StaleTimers)
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// outcome is what a finished pass reports besides its timings.
type outcome struct {
	// quality is final ÷ initial of the figure's y-value, averaged over
	// worlds and variants.
	quality float64
	// ops and opsFailed are the operations the benchmark itself issued and
	// checked (lookups, AL estimates): the result line's attempted/failed.
	ops, opsFailed uint64
	// probes and probesFailed are the program's own probe cycles and those
	// that timed out after all retries, failed a measurement or timed out a
	// commit. Together with ops they make success_share; cycles lost to
	// injected faults are the workload working as designed, so they stay
	// out of the result line's failed count.
	probes, probesFailed uint64
	// digest is the sim_digest; hasDigest is false on live-loopback, whose
	// goroutine schedule is not a function of the seed.
	digest    uint64
	hasDigest bool
}

// exhaustedSteps is the number of probe steps core abandoned after the full
// retry budget: a lost step counts one Timeout per attempt and one Retry per
// retransmission, so a chain that runs out leaves exactly one Timeout more.
func exhaustedSteps(c CoreCounters) uint64 { return c.Timeouts - c.Retries }

// Package shard is the domain-sharded million-node simulator (DESIGN.md
// §12, SCALING.md): a parallel discrete-event engine that partitions the
// peer population by transit domain, runs one event queue per shard, and
// synchronizes shards with conservative-lookahead epochs, so PROP-G-style
// topology optimization can be simulated at 10⁵–10⁶ peers on one machine.
//
// The design rests on three load-bearing choices:
//
//   - Conservative lookahead from the physical topology. Any two peers in
//     different transit domains are at least Config.CrossDomainFloorMS
//     apart (one stub-transit uplink on each side plus one backbone link),
//     so a message between shards can never arrive sooner than that floor.
//     Epoch windows never exceed it; cross-shard messages are exchanged
//     through per-shard mailboxes only at the epoch barrier, which is early
//     enough — every such message's arrival time lies at or beyond the next
//     window. No shard ever receives an event "in its past".
//
//   - Struct-of-arrays hot state keyed by int32 ids. Per-peer protocol
//     state lives in flat parallel arrays (slot assignment, the swap
//     transaction's core.Txn, RNG and send counters, occupant caches,
//     liveness strikes), not in per-node structs with pointers: at 10⁶
//     peers what New builds stays ~100 B/peer (SCALING.md §4 has the
//     budget, event queues included) and
//     scans stay cache-linear. Handlers only write state belonging to the
//     addressed peer, which is what makes the parallel window processing
//     race-free (peers never change shards).
//
//   - A deterministic total event order. Every message carries the key
//     (arrival time, origin peer, per-origin sequence number); queues pop by
//     that key, peers draw randomness from a stateless counter-keyed
//     generator, and samples reduce per-shard tallies in fixed order. The
//     execution each peer observes is therefore a pure function of the
//     seed — independent not only of goroutine scheduling but of the shard
//     count itself: the same seed produces byte-identical metrics streams
//     for 1, 2, 4, … shards (pinned by TestShardCountInvariance). The
//     determinism contract of DESIGN.md §12 only promises "same seed +
//     same shard count"; the engine delivers the stronger property and the
//     contract keeps the slack for future optimizations that may need it.
//
// Latency plane: the sequential oracle's underlay (netsim.Anchors,
// netsim.CoreTable). A peer's host hangs off one transit router through one
// uplink, so estLat(p,q) is the two uplink offsets plus one entry of the
// exact router-pair table — the physical distance between peers of
// different stub domains, and an upper bound through the router between
// peers of one. It prices message delays, swap gains and the flood weights
// behind metrics.ALEstimator; at small n Config.ExactAL adds the exact AL
// reference and the estimator's error to the stream.
//
// Faults and the swap: every run takes one path, whatever its schedule
// (Config.Faults; nil is all zero). Message verdicts and crash times come
// from internal/faults' one model — faults.DeliverStateless keyed by the
// sender's send counter, faults.CrashAt per peer — so the sequential
// engine, this one and the live transport share one fault schedule. A
// probe cycle's walk and a swap's proposal each arm a timeout, the only
// aborts, and the rules of the version-guarded swap are core.Txn's, which
// the handlers drive (sim.go).
//
// Entry points: New builds the world (physical network, latency plane,
// logical overlay, initial random placement); Engine.Run executes the
// epoch loop and samples into an obs.Trial; Engine.FloodSource exposes the
// quiesced overlay to the metrics layer. The fig5a-scale experiment
// (internal/experiment) is the packaged sweep.
package shard

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/netsim"
)

// Default experiment time structure: lighter than the fig5 panels (30 sim
// minutes) because a 10⁶-peer rung must fit CI; ten minutes of one-minute
// probe cycles is enough for the AL trend to show.
const (
	defaultHorizonMS     = 10 * 60000
	defaultSampleMS      = 2 * 60000
	defaultChordsPerPeer = 1
)

// The protocol's fixed parameters.
const (
	// probeIntervalMS is the mean peer probe period (jittered ±25% per
	// cycle).
	probeIntervalMS = 60000.0
	// walkHops is the random-walk length of each probe (the paper's nhop).
	walkHops = 3
	// minGainMS is the estimated total-latency improvement a swap must
	// clear to commit (the engine's analogue of the paper's MIN_VAR gate).
	minGainMS = 1.0
)

// maxDeg caps the logical degree of every slot so occupant caches and
// message payloads are fixed-size arrays ([maxDeg]int32) instead of heap
// allocations. Ring (2) + one initiated chord + accepted chords ≤ maxDeg.
const maxDeg = 8

// Config parameterizes one sharded run. The zero value of every field has
// a usable default except Peers (or Net), which sizes the world.
type Config struct {
	// Peers is the requested peer count; the world is netsim.ScaleTS(Peers)
	// and every stub host carries one peer, so the actual population
	// (Engine.Peers) rounds up to whole stub domains. Ignored when Net is
	// set.
	Peers int
	// Shards is the number of parallel engines; peers are assigned by
	// transit domain (domain mod Shards), so it must lie in [1,
	// TransitDomains]. 0 means one engine per transit domain.
	Shards int
	// Seed drives everything: world generation, initial placement, every
	// protocol draw, and the AL-estimator's source sampling.
	Seed uint64
	// HorizonMS is the optimization horizon: probes stop firing at this
	// simulated time and the run drains in-flight work. 0 means the
	// 10-minute default.
	HorizonMS float64
	// SampleEveryMS is the sampling period of the metrics stream. 0 means
	// the 2-minute default.
	SampleEveryMS float64
	// ALSources is the ALEstimator sketch width per sample; 0 means the
	// estimator's default (16).
	ALSources int
	// ExactAL additionally computes the exact eq. (3) reference and the
	// estimator's relative error at every sample. O(n·Dijkstra) per sample
	// — only sane at the small rungs (n ≤ ~4096).
	ExactAL bool
	// Faults is the fault/churn schedule; nil is the all-zero schedule.
	// Every schedule runs one path: probe and commit timeouts armed, the
	// crash schedule consulted, the churn series sampled.
	Faults *FaultConfig
	// Net overrides the physical preset (tests use tiny worlds); nil means
	// netsim.ScaleTS(Peers).
	Net *netsim.Config
}

// FaultConfig is the sharded engine's fault and churn schedule, the fault
// model of internal/faults with transit domain 0 as the partition cut.
// Every verdict it induces is a stateless hash of (seed, directed link or
// peer, sequence number) — faults.DeliverStateless, faults.CrashAt — so
// any shard can evaluate any message's fate with no shared mutable state,
// the property that keeps metrics streams byte-identical across shard
// counts.
type FaultConfig struct {
	// LossProb is the i.i.d. per-message drop probability. The two-phase
	// swap acknowledgment (kCommitOK) is exempt: core.Txn's one assumption.
	LossProb float64
	// DupProb is the probability a delivered message arrives twice; the
	// duplicate takes a fresh sequence number and its own jitter draw.
	DupProb float64
	// JitterMS is the maximum extra one-way delay, drawn uniformly from
	// [0, JitterMS) per message. Jitter is strictly additive, so it can
	// never undercut the conservative lookahead floor; a jittered message
	// whose arrival lands past the current epoch window simply waits in
	// its queue and is processed in a later window (both regimes — jitter
	// below the floor and far above it — are pinned by tests).
	JitterMS float64
	// PartitionStartMS and PartitionStopMS bound the partition window:
	// every message between a peer inside transit domain 0 and one outside
	// it is dropped. No partition when the window is empty.
	PartitionStartMS, PartitionStopMS float64
	// CrashFrac is the fraction of peers that crash-stop (dead forever,
	// dropping all traffic) at faults.CrashAt's per-peer time inside the
	// middle third of the horizon, [HorizonMS/3, 2·HorizonMS/3), so the
	// stream shows pre-churn convergence, the hit, and the recovery.
	CrashFrac float64
}

// validate checks the schedule. The knobs FaultConfig shares with
// faults.Config are faults.Config's to check.
func (f *FaultConfig) validate() error {
	shared := faults.Config{LossProb: f.LossProb, DupProb: f.DupProb, JitterMS: f.JitterMS}
	if err := shared.Validate(); err != nil {
		return fmt.Errorf("shard: Faults: %w", err)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case !(f.CrashFrac >= 0 && f.CrashFrac <= 1):
		return fmt.Errorf("shard: Faults.CrashFrac = %v out of [0,1]", f.CrashFrac)
	case !finite(f.PartitionStartMS) || !finite(f.PartitionStopMS):
		return fmt.Errorf("shard: partition window [%v,%v) not finite", f.PartitionStartMS, f.PartitionStopMS)
	case f.PartitionStopMS < f.PartitionStartMS:
		return fmt.Errorf("shard: partition window [%v,%v) inverted", f.PartitionStartMS, f.PartitionStopMS)
	}
	return nil
}

// withDefaults returns cfg with zero fields filled in.
func (c Config) withDefaults() Config {
	if c.HorizonMS == 0 {
		c.HorizonMS = defaultHorizonMS
	}
	if c.SampleEveryMS == 0 {
		c.SampleEveryMS = defaultSampleMS
	}
	if c.Faults == nil {
		c.Faults = &FaultConfig{}
	}
	return c
}

// validate checks cfg against the resolved physical preset.
func (c Config) validate(net netsim.Config) error {
	switch {
	case c.Shards < 1 || c.Shards > net.TransitDomains:
		return fmt.Errorf("shard: Shards = %d, want 1..%d (one per transit domain at most)", c.Shards, net.TransitDomains)
	case !(c.HorizonMS >= 0 && c.HorizonMS < math.Inf(1)) || !(c.SampleEveryMS > 0 && c.SampleEveryMS < math.Inf(1)):
		return fmt.Errorf("shard: time parameters (horizon %v, sample %v) not finite and positive",
			c.HorizonMS, c.SampleEveryMS)
	case c.ALSources < 0:
		return fmt.Errorf("shard: ALSources = %d, want >= 0", c.ALSources)
	case net.TotalStubHosts() < 8:
		return fmt.Errorf("shard: %d peers, want >= 8", net.TotalStubHosts())
	}
	return c.Faults.validate()
}

// Stats summarizes one completed run. All message counters are totals over
// the whole population, so every field except CrossShard and Epochs is
// invariant across shard counts; CrossShard (messages that crossed an
// engine boundary) necessarily depends on the partition and is therefore
// reported here and in Result notes, never in the metrics stream.
type Stats struct {
	// Peers is the simulated population; Shards the engine count.
	Peers, Shards int
	// LookaheadMS is the conservative epoch bound derived from the physical
	// preset (Config.CrossDomainFloorMS).
	LookaheadMS float64
	// Epochs is the number of processed epoch windows, including the drain
	// tail past the horizon.
	Epochs uint64
	// Probes counts probe-timer firings; Walks random-walk messages;
	// Reports walk-end reports; Commits swap proposals sent after a
	// positive gain evaluation; Exchanges committed slot swaps.
	Probes, Walks, Reports, Commits, Exchanges uint64
	// GainRejected counts probe cycles abandoned because the estimated gain
	// did not clear minGainMS; VerRejected counts commit proposals refused
	// by the partner (version moved or partner locked), each answered by an
	// advisory kReject.
	GainRejected, VerRejected uint64
	// Notifies counts occupant-update messages sent after an exchange.
	Notifies uint64
	// CrossShard counts messages routed through an inter-shard mailbox.
	// Shard-count dependent by construction.
	CrossShard uint64
	// SnapshotConflicts counts transient double-claimed slots resolved
	// deterministically while building sample-time snapshots (a swap's
	// commit seen but its acknowledgment still in flight).
	SnapshotConflicts uint64

	// Fault/churn tallies, all zero under the zero schedule and — like the
	// protocol counters — invariant across shard counts, because every
	// fate is a stateless hash and every drop a pure function of the
	// processed event prefix. Integer counters only: float tallies would
	// pick up shard-partition-dependent summation order.

	// Lost counts i.i.d. per-message drops; DupsSent duplicated
	// deliveries; PartitionDrops drops across the domain-partition cut.
	Lost, DupsSent, PartitionDrops uint64
	// Crashes counts crash-stop events; DeadDrops messages (and stale
	// self-timers) discarded because the addressee was dead.
	Crashes, DeadDrops uint64
	// ProbeTimeouts counts abandoned probe cycles; CommitTimeouts aborted
	// two-phase swaps (the only abort, core.Txn); StaleGuards reports that
	// arrived while another cycle's walk was out, and acknowledgments that
	// matched no open proposal.
	ProbeTimeouts, CommitTimeouts, StaleGuards uint64
	// Evictions counts believed-occupant entries evicted after repeated
	// probe timeouts through them; NoNeighbor probe cycles skipped because
	// every cache entry was evicted.
	Evictions, NoNeighbor uint64
}

// messages returns the total protocol message count (excluding self
// timers), the quantity sampled as the "messages" series.
func (s Stats) messages() uint64 {
	return s.Walks + s.Reports + s.Commits + s.Exchanges + s.VerRejected + s.Notifies
}

// Package shard is the domain-sharded million-node simulator (DESIGN.md
// §12, SCALING.md): a parallel discrete-event engine that partitions the
// peer population by transit domain, runs one event heap per shard, and
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
//     state lives in flat parallel arrays (slot assignment, swap version,
//     probe state, RNG and send counters, occupant caches), not in
//     per-node structs with pointers: at 10⁶ peers what New builds stays
//     ~90 B/peer (SCALING.md §4 has the budget, event heaps included) and
//     scans stay cache-linear. Handlers only write state belonging to the
//     addressed peer, which is what makes the parallel window processing
//     race-free (peers never change shards).
//
//   - A deterministic total event order. Every message carries the key
//     (arrival time, origin peer, per-origin sequence number); heaps pop by
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
// Entry points: New builds the world (physical network, latency plane,
// logical overlay, initial random placement); Engine.Run executes the
// epoch loop and samples into an obs.Trial; Engine.FloodSource exposes the
// quiesced overlay to the metrics layer. The fig5a-scale experiment
// (internal/experiment) is the packaged sweep.
package shard

import (
	"fmt"
	"math"

	"repro/internal/netsim"
)

// Default experiment time structure: lighter than the fig5 panels (30 sim
// minutes) because a 10⁶-peer rung must fit CI; ten minutes of one-minute
// probe cycles is enough for the AL trend to show.
const (
	defaultHorizonMS     = 10 * 60000
	defaultSampleMS      = 2 * 60000
	defaultProbeMS       = 60000
	defaultWalkHops      = 3
	defaultMinGainMS     = 1.0
	defaultChordsPerPeer = 1
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
	// ProbeIntervalMS is the mean peer probe period (jittered ±25% per
	// cycle). 0 means the 1-minute default.
	ProbeIntervalMS float64
	// WalkHops is the random-walk length of each probe (the paper's nhop).
	// 0 means 3.
	WalkHops int
	// MinGainMS is the estimated total-latency improvement a swap must
	// clear to commit (the engine's analogue of the paper's MIN_VAR gate).
	// 0 means 1 ms.
	MinGainMS float64
	// ALSources is the ALEstimator sketch width per sample; 0 means the
	// estimator's default (16).
	ALSources int
	// ExactAL additionally computes the exact eq. (3) reference and the
	// estimator's relative error at every sample. O(n·Dijkstra) per sample
	// — only sane at the small rungs (n ≤ ~4096).
	ExactAL bool
	// Faults is the fault/churn schedule. nil — or a schedule with every
	// knob zero — is the fault-free fast path: no timeout timers, no crash
	// events, no fate draws, and a message schedule byte-identical to the
	// engine without fault support.
	Faults *FaultConfig
	// Net overrides the physical preset (tests use tiny worlds); nil means
	// netsim.ScaleTS(Peers).
	Net *netsim.Config
}

// FaultConfig is the sharded engine's fault and churn schedule, the PR 4
// fault model (internal/faults) restated for the shard tier. Every verdict
// it induces is a stateless hash of (seed, link or peer, sequence or time
// window) in the style of faults.DeliverStateless, so any shard can
// evaluate any message's fate with no shared mutable state — the property
// that keeps metrics streams byte-identical across shard counts even with
// faults enabled.
type FaultConfig struct {
	// LossProb is the i.i.d. per-message drop probability. The two-phase
	// swap acknowledgment (kCommitOK) is exempt — see the reliable-ack
	// note in sim.go.
	LossProb float64
	// DupProb is the probability a delivered message arrives twice; the
	// duplicate takes a fresh sequence number and its own jitter draw.
	DupProb float64
	// JitterMS is the maximum extra one-way delay, drawn uniformly from
	// [0, JitterMS) per message. Jitter is strictly additive, so it can
	// never undercut the conservative lookahead floor; a jittered message
	// whose arrival lands past the current epoch window simply waits in
	// its heap and is processed in a later window (both regimes — jitter
	// below the floor and far above it — are pinned by tests).
	JitterMS float64
	// LinkFailProb is the probability that a given overlay link is down
	// for a given outage window; LinkFailPeriodMS is the window length
	// (0 means faults.DefaultLinkFailPeriodMS). Outage state is a pure
	// hash of (seed, link, window), symmetric in the link.
	LinkFailProb     float64
	LinkFailPeriodMS float64
	// PartitionDomain isolates one transit domain during [PartitionStartMS,
	// PartitionStopMS): every message between a peer inside the domain and
	// one outside is dropped. No partition when the window is empty.
	PartitionDomain                   int
	PartitionStartMS, PartitionStopMS float64
	// CrashFrac is the fraction of peers that crash-stop (dead forever,
	// dropping all traffic) at a stateless per-peer hash time inside
	// [CrashStartMS, CrashStopMS). Both zero means the middle third of the
	// horizon.
	CrashFrac                 float64
	CrashStartMS, CrashStopMS float64
}

// enabled reports whether any fault knob is set; a nil or all-zero
// schedule keeps the engine on its historical fault-free path.
func (f *FaultConfig) enabled() bool {
	if f == nil {
		return false
	}
	return f.LossProb > 0 || f.DupProb > 0 || f.JitterMS > 0 ||
		f.LinkFailProb > 0 || f.PartitionStopMS > f.PartitionStartMS ||
		f.CrashFrac > 0
}

// validate checks the schedule against the resolved physical preset.
func (f *FaultConfig) validate(net netsim.Config) error {
	inUnit := func(name string, v float64) error {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("shard: %s = %v out of [0,1]", name, v)
		}
		return nil
	}
	if err := inUnit("Faults.LossProb", f.LossProb); err != nil {
		return err
	}
	if err := inUnit("Faults.DupProb", f.DupProb); err != nil {
		return err
	}
	if err := inUnit("Faults.LinkFailProb", f.LinkFailProb); err != nil {
		return err
	}
	if err := inUnit("Faults.CrashFrac", f.CrashFrac); err != nil {
		return err
	}
	switch {
	case !(f.JitterMS >= 0 && f.JitterMS < math.Inf(1)):
		return fmt.Errorf("shard: Faults.JitterMS = %v, want finite and >= 0", f.JitterMS)
	case !(f.LinkFailPeriodMS >= 0):
		return fmt.Errorf("shard: Faults.LinkFailPeriodMS = %v, want >= 0", f.LinkFailPeriodMS)
	case f.PartitionStopMS < f.PartitionStartMS:
		return fmt.Errorf("shard: partition window [%v,%v) inverted", f.PartitionStartMS, f.PartitionStopMS)
	case f.PartitionStopMS > f.PartitionStartMS && (f.PartitionDomain < 0 || f.PartitionDomain >= net.TransitDomains):
		return fmt.Errorf("shard: Faults.PartitionDomain = %d, want 0..%d", f.PartitionDomain, net.TransitDomains-1)
	case f.CrashStopMS < f.CrashStartMS:
		return fmt.Errorf("shard: crash window [%v,%v) inverted", f.CrashStartMS, f.CrashStopMS)
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
	if c.ProbeIntervalMS == 0 {
		c.ProbeIntervalMS = defaultProbeMS
	}
	if c.WalkHops == 0 {
		c.WalkHops = defaultWalkHops
	}
	if c.MinGainMS == 0 {
		c.MinGainMS = defaultMinGainMS
	}
	return c
}

// validate checks cfg against the resolved physical preset.
func (c Config) validate(net netsim.Config) error {
	switch {
	case c.Shards < 1 || c.Shards > net.TransitDomains:
		return fmt.Errorf("shard: Shards = %d, want 1..%d (one per transit domain at most)", c.Shards, net.TransitDomains)
	case c.WalkHops < 1:
		return fmt.Errorf("shard: WalkHops = %d, want >= 1", c.WalkHops)
	case c.HorizonMS < 0 || c.SampleEveryMS <= 0 || c.ProbeIntervalMS <= 0:
		return fmt.Errorf("shard: non-positive time parameters (horizon %v, sample %v, probe %v)",
			c.HorizonMS, c.SampleEveryMS, c.ProbeIntervalMS)
	case c.MinGainMS < 0:
		return fmt.Errorf("shard: MinGainMS = %v, want >= 0", c.MinGainMS)
	case c.ALSources < 0:
		return fmt.Errorf("shard: ALSources = %d, want >= 0", c.ALSources)
	case net.TotalStubHosts() < 8:
		return fmt.Errorf("shard: %d peers, want >= 8", net.TotalStubHosts())
	}
	if c.Faults != nil {
		return c.Faults.validate(net)
	}
	return nil
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
	// did not clear MinGainMS; VerRejected counts commit proposals refused
	// by the partner (version moved or partner locked).
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

	// Fault/churn tallies, all zero on the fault-free path and — like the
	// protocol counters — invariant across shard counts, because every
	// fate is a stateless hash and every drop a pure function of the
	// processed event prefix. Integer counters only: float tallies would
	// pick up shard-partition-dependent summation order.

	// Lost counts i.i.d. per-message drops; DupsSent duplicated
	// deliveries; LinkDownDrops transient-outage drops; PartitionDrops
	// drops across the domain-partition cut.
	Lost, DupsSent, LinkDownDrops, PartitionDrops uint64
	// Crashes counts crash-stop events; DeadDrops messages (and stale
	// self-timers) discarded because the addressee was dead.
	Crashes, DeadDrops uint64
	// ProbeTimeouts counts abandoned probe cycles; CommitTimeouts aborted
	// two-phase swaps (version-guarded — see handleCommitTO); StaleGuards
	// cycle-scoped replies discarded by the txn guard.
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

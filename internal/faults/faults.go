// Package faults is the deterministic fault-injection layer of the
// simulator: it decides, message by message, whether protocol traffic is
// delivered, lost, duplicated, or delayed, and whether a link or a whole
// region of the physical network is currently unreachable.
//
// The paper evaluates PROP-G/PROP-O only under graceful churn and perfectly
// reliable delivery; real overlays (Ripeanu et al.'s Gnutella maps, Aspnes
// et al.'s fault-tolerant routing) live with substantial message loss and
// abrupt node failure. This package supplies the environment half of that
// story; the protocol half — timeouts, bounded retry with back-off, and
// liveness-based neighbor eviction — lives in internal/core, and crash-stop
// membership death is each substrate's overlay.Membership (Crash, Repair).
//
// Everything is seed-driven and consulted only from the single-threaded
// event engine, so a fault schedule is a pure function of its Config: the
// same seed yields the same losses at the same simulated times, which is
// what makes the figR* robustness experiments byte-reproducible and lets
// the fuzz tests shrink failing schedules. Per-message faults (loss,
// duplication, jitter) draw from a private generator; per-link transient
// outages and partitions are stateless functions of (link, time window), so
// they hold consistently for every message crossing the link during the
// window.
//
// Key types: Config, Injector (nil receiver = faults off, zero cost), and
// Delivery. See DESIGN.md §9 for the fault model and parameter table.
package faults

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Config describes one fault schedule. The zero value means "no faults":
// every probability is zero and no partition window is set.
type Config struct {
	// Seed drives the per-message draws and the per-link outage hash. Two
	// injectors with the same Config produce identical schedules.
	Seed uint64
	// LossProb is the probability that any single message is silently
	// dropped (loss is i.i.d. per message, the classic lossy-channel model).
	LossProb float64
	// DupProb is the probability that a delivered message arrives twice.
	// The protocols must detect and drop the duplicate (internal/core counts
	// DupsDropped); an unhardened protocol would re-execute the exchange.
	DupProb float64
	// JitterMS is the maximum extra one-way queueing delay, drawn uniformly
	// from [0, JitterMS) per delivered message. Jitter perturbs measured
	// probe RTTs — the Var computation sees it — but never ground truth.
	JitterMS float64
	// LinkFailProb is the probability that a given physical link is down for
	// a given outage window (transient link failure). Within one window the
	// link is consistently dead in both directions.
	LinkFailProb float64
	// LinkFailPeriodMS is the outage-window length; 0 selects
	// DefaultLinkFailPeriodMS. Outage state is a pure function of
	// (link, floor(now/period)), so it needs no timers.
	LinkFailPeriodMS float64
	// PartitionStartMS and PartitionStopMS bound the network-partition
	// window in simulated time (no partition when both are zero).
	PartitionStartMS, PartitionStopMS float64
	// Isolated is the host set on the far side of the partition: during the
	// window, every message between an isolated and a non-isolated host is
	// dropped. Traffic within either side is unaffected.
	Isolated map[int]bool
}

// DefaultLinkFailPeriodMS is the transient-outage window used when
// Config.LinkFailPeriodMS is zero: one simulated minute.
const DefaultLinkFailPeriodMS = 60000

// Validate reports the first configuration error.
func (c Config) Validate() error {
	inUnit := func(name string, v float64) error {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("faults: %s = %v out of [0,1]", name, v)
		}
		return nil
	}
	if err := inUnit("LossProb", c.LossProb); err != nil {
		return err
	}
	if err := inUnit("DupProb", c.DupProb); err != nil {
		return err
	}
	if err := inUnit("LinkFailProb", c.LinkFailProb); err != nil {
		return err
	}
	switch {
	case !(c.JitterMS >= 0 && c.JitterMS < math.Inf(1)):
		return fmt.Errorf("faults: JitterMS = %v, want finite and >= 0", c.JitterMS)
	case !(c.LinkFailPeriodMS >= 0):
		return fmt.Errorf("faults: LinkFailPeriodMS = %v, want >= 0", c.LinkFailPeriodMS)
	case !finiteWindow(c.PartitionStartMS, c.PartitionStopMS):
		return fmt.Errorf("faults: partition window [%v,%v) not finite",
			c.PartitionStartMS, c.PartitionStopMS)
	case c.PartitionStopMS < c.PartitionStartMS:
		return fmt.Errorf("faults: partition window [%v,%v) inverted",
			c.PartitionStartMS, c.PartitionStopMS)
	case c.PartitionStopMS > c.PartitionStartMS && len(c.Isolated) == 0:
		return fmt.Errorf("faults: partition window set but no hosts isolated")
	}
	return nil
}

// finiteWindow reports whether both ends of a time window are finite.
func finiteWindow(start, stop float64) bool {
	return !math.IsNaN(start) && !math.IsInf(start, 0) && !math.IsNaN(stop) && !math.IsInf(stop, 0)
}

// Reason classifies why a message was lost.
type Reason uint8

const (
	// ReasonNone marks a delivered message.
	ReasonNone Reason = iota
	// ReasonLoss is an i.i.d. per-message drop.
	ReasonLoss
	// ReasonLinkDown is a transient link outage.
	ReasonLinkDown
	// ReasonPartition is a drop across the partition cut.
	ReasonPartition
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "delivered"
	case ReasonLoss:
		return "loss"
	case ReasonLinkDown:
		return "link-down"
	case ReasonPartition:
		return "partition"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// Delivery is the injector's verdict on one message.
type Delivery struct {
	// Lost reports that the message never arrives; Reason says why.
	Lost bool
	// Reason classifies the drop (ReasonNone when delivered).
	Reason Reason
	// Dup reports that the message arrives twice (only when delivered).
	Dup bool
	// DelayMS is the extra queueing delay of a delivered message.
	DelayMS float64
}

// Stats tallies what the injector actually did, for fault manifests and the
// figR* metrics streams. All fields are totals since construction.
type Stats struct {
	// Messages counts Deliver calls.
	Messages uint64
	// Lost counts i.i.d. per-message drops.
	Lost uint64
	// Dups counts duplicated deliveries.
	Dups uint64
	// LinkDownDrops counts drops due to transient link outages.
	LinkDownDrops uint64
	// PartitionDrops counts drops across the partition cut.
	PartitionDrops uint64
	// JitterSumMS is the total injected queueing delay.
	JitterSumMS float64
}

// Injector decides the fate of protocol messages. It must only be consulted
// from the single-threaded event engine (it owns a mutable RNG). A nil
// *Injector is the disabled state: Enabled reports false and Deliver
// returns a clean Delivery without consuming randomness.
type Injector struct {
	cfg    Config
	period float64
	r      *rng.Rand
	stats  Stats
}

// NewInjector builds an injector for the given schedule.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	period := cfg.LinkFailPeriodMS
	if period == 0 {
		period = DefaultLinkFailPeriodMS
	}
	return &Injector{cfg: cfg, period: period, r: rng.New(cfg.Seed ^ 0xfa017f5eed)}, nil
}

// Enabled reports whether an injector is attached: any constructed one,
// even all-zero, as opposed to the nil injector.
func (in *Injector) Enabled() bool { return in != nil }

// Stats returns the activity totals so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Deliver decides the fate of one message from host a to host b at
// simulated time nowMS. Partition and link-outage drops are checked first
// (they are deterministic in time and consume no randomness), then the
// i.i.d. loss/duplication/jitter draws.
func (in *Injector) Deliver(a, b int, nowMS float64) Delivery {
	if in == nil {
		return Delivery{}
	}
	in.stats.Messages++
	if in.Partitioned(a, b, nowMS) {
		in.stats.PartitionDrops++
		return Delivery{Lost: true, Reason: ReasonPartition}
	}
	if in.LinkDown(a, b, nowMS) {
		in.stats.LinkDownDrops++
		return Delivery{Lost: true, Reason: ReasonLinkDown}
	}
	var d Delivery
	if in.cfg.LossProb > 0 && in.r.Float64() < in.cfg.LossProb {
		in.stats.Lost++
		return Delivery{Lost: true, Reason: ReasonLoss}
	}
	if in.cfg.DupProb > 0 && in.r.Float64() < in.cfg.DupProb {
		in.stats.Dups++
		d.Dup = true
	}
	if in.cfg.JitterMS > 0 {
		d.DelayMS = in.r.Float64() * in.cfg.JitterMS
		in.stats.JitterSumMS += d.DelayMS
	}
	return d
}

// Message-fault salts: each per-message draw of DeliverStateless hashes the
// same (seed, direction, seq) tuple under a distinct salt so the loss, dup,
// and jitter verdicts are statistically independent.
const (
	saltLoss uint64 = 1 + iota
	saltDup
	saltJitter
)

// DeliverStateless decides the fate of one message as a pure function of
// (seed, direction a→b, seq) — no generator state is consumed, so the
// verdict is independent of global delivery order. This is the face the
// live transports use (internal/transport): a concurrent runtime cannot
// guarantee a total order on Deliver calls, but per-link sequence numbers
// are ordered per sender, so hashing them keeps a seeded live run's fault
// schedule reproducible (the figR-style determinism contract, outside the
// simulator). nowMS positions the message against the partition and
// link-outage windows, exactly as in Deliver.
//
// Unlike Deliver, no Stats are tallied — the function is pure; transports
// own their delivery accounting (e.g. transport.Loopback's drop log).
func (in *Injector) DeliverStateless(a, b int, seq uint64, nowMS float64) Delivery {
	if in == nil {
		return Delivery{}
	}
	if in.Partitioned(a, b, nowMS) {
		return Delivery{Lost: true, Reason: ReasonPartition}
	}
	if in.LinkDown(a, b, nowMS) {
		return Delivery{Lost: true, Reason: ReasonLinkDown}
	}
	var d Delivery
	if !(in.cfg.LossProb > 0 || in.cfg.DupProb > 0 || in.cfg.JitterMS > 0) {
		return d // no per-message probability: nothing to hash
	}
	x := msgPrefix(in.cfg.Seed, a, b, seq)
	if in.cfg.LossProb > 0 && unit(salted(x, saltLoss)) < in.cfg.LossProb {
		return Delivery{Lost: true, Reason: ReasonLoss}
	}
	if in.cfg.DupProb > 0 && unit(salted(x, saltDup)) < in.cfg.DupProb {
		d.Dup = true
	}
	if in.cfg.JitterMS > 0 {
		d.DelayMS = unit(salted(x, saltJitter)) * in.cfg.JitterMS
	}
	return d
}

// JitterStateless returns only the jitter component of the stateless
// verdict for (a→b, seq): the same hash DeliverStateless would draw, with
// the loss and duplication rolls skipped. Two uses need it: duplicate
// copies (their existence was decided by the original's Dup bit, but
// their delay must be an independent draw keyed by their own sequence
// number) and loss-exempt messages such as the sharded engine's swap
// acknowledgment, which still jitters but never drops.
func (in *Injector) JitterStateless(a, b int, seq uint64) float64 {
	if in == nil || in.cfg.JitterMS <= 0 {
		return 0
	}
	return unit(salted(msgPrefix(in.cfg.Seed, a, b, seq), saltJitter)) * in.cfg.JitterMS
}

// msgPrefix folds (seed, directed link, per-link sequence number) through
// rng.Mix, one word at a time; salted finishes it with one salt, so the
// verdicts of one message share the prefix. Direction matters — a→b and
// b→a are independent message streams — unlike linkHash, whose outages are
// link-symmetric.
func msgPrefix(seed uint64, a, b int, seq uint64) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15
	for _, w := range [...]uint64{uint64(a), uint64(b), seq} {
		x = rng.Mix(x + w + 0x9e3779b97f4a7c15)
	}
	return x
}

// salted finishes a msgPrefix with one salt.
func salted(prefix, salt uint64) uint64 { return rng.Mix(prefix + salt + 0x9e3779b97f4a7c15) }

// unit maps 64 hash bits onto [0,1) with 53-bit precision.
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Partitioned reports whether hosts a and b are on opposite sides of the
// partition cut at time nowMS.
func (in *Injector) Partitioned(a, b int, nowMS float64) bool {
	if in == nil || len(in.cfg.Isolated) == 0 {
		return false
	}
	if nowMS < in.cfg.PartitionStartMS || nowMS >= in.cfg.PartitionStopMS {
		return false
	}
	return in.cfg.Isolated[a] != in.cfg.Isolated[b]
}

// LinkDown reports whether the physical link {a,b} is in a transient outage
// at time nowMS. The outage state is a pure hash of (seed, link, window),
// so it is direction-symmetric, consistent for every message in the window,
// and independent of how often it is asked.
func (in *Injector) LinkDown(a, b int, nowMS float64) bool {
	if in == nil || in.cfg.LinkFailProb <= 0 {
		return false
	}
	if a > b {
		a, b = b, a
	}
	window := uint64(nowMS / in.period)
	h := linkHash(in.cfg.Seed, uint64(a), uint64(b), window)
	return unit(h) < in.cfg.LinkFailProb
}

// linkHash folds (seed, link endpoints, outage window) through rng.Mix,
// one word at a time.
func linkHash(seed, a, b, window uint64) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15
	for _, w := range [...]uint64{a, b, window} {
		x = rng.Mix(x + w + 0x9e3779b97f4a7c15)
	}
	return x
}

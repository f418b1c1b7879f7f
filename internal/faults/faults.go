// Package faults is the deterministic fault model of every runtime: it
// decides, message by message, whether protocol traffic is delivered, lost,
// duplicated, or delayed, whether a region of the physical network is
// currently cut off, and when a peer crash-stops.
//
// The paper evaluates PROP-G/PROP-O only under graceful churn and perfectly
// reliable delivery; real overlays (Ripeanu et al.'s Gnutella maps, Aspnes
// et al.'s fault-tolerant routing) live with substantial message loss and
// abrupt node failure. This package supplies the environment half of that
// story; the protocol half — timeouts, bounded retry with back-off, and
// liveness-based neighbor eviction — lives in internal/core, and crash-stop
// membership death is each substrate's overlay.Membership (Crash, Repair).
//
// Every fault is a pure function of the seed, so a schedule can be named,
// replayed and shrunk, and the figR* experiments are byte-reproducible. A
// message's fate is one hash of (seed, directed link, sequence number):
// DeliverStateless takes the number from its caller (the sharded engine's
// per-sender counter, a live transport's per-link counter), and Deliver
// numbers host a's k-th call k, so the sequential engine reads the same
// verdicts. A partition is a function of (host pair, time), consistent for
// every message crossing the cut during its window, and CrashAt is the one
// crash-stop schedule, a function of (seed, peer).
//
// Key types: Config, Injector (nil receiver = faults off, zero cost),
// Delivery, and CrashAt. See DESIGN.md §9 for the fault model and parameter
// table, §12 for the crash schedule.
package faults

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Config describes one fault schedule. The zero value means "no faults":
// every probability is zero and no partition window is set.
type Config struct {
	// Seed drives the per-message hashes. Two injectors with the same Config
	// produce identical schedules.
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
	// PartitionStartMS and PartitionStopMS bound the network-partition
	// window in simulated time (no partition when both are zero).
	PartitionStartMS, PartitionStopMS float64
	// Isolated is the host set on the far side of the partition: during the
	// window, every message between an isolated and a non-isolated host is
	// dropped. Traffic within either side is unaffected.
	Isolated map[int]bool
}

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
	switch {
	case !(c.JitterMS >= 0 && c.JitterMS < math.Inf(1)):
		return fmt.Errorf("faults: JitterMS = %v, want finite and >= 0", c.JitterMS)
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
	// PartitionDrops counts drops across the partition cut.
	PartitionDrops uint64
}

// Injector decides the fate of protocol messages. Deliver keeps a per-sender
// message count and the Stats, so it must be called from one goroutine at a
// time (the event engine); every other method is a pure function of the
// Config and safe anywhere. A nil *Injector is the disabled state: Enabled
// reports false and every message is delivered clean.
type Injector struct {
	cfg   Config
	sent  []uint64 // Deliver calls so far, per sending host
	stats Stats
}

// NewInjector builds an injector for the given schedule.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg}, nil
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

// Deliver decides the fate of host a's next message to host b at simulated
// time nowMS and tallies it in Stats. Host a's k-th call (from 0) returns
// DeliverStateless(a, b, k, nowMS): the sequence number counts the sender's
// messages to every destination, as the sharded engine's does.
func (in *Injector) Deliver(a, b int, nowMS float64) Delivery {
	if in == nil {
		return Delivery{}
	}
	if a >= len(in.sent) {
		in.sent = append(in.sent, make([]uint64, a+1-len(in.sent))...)
	}
	seq := in.sent[a]
	in.sent[a] = seq + 1
	d := in.DeliverStateless(a, b, seq, nowMS)
	in.stats.Messages++
	switch d.Reason {
	case ReasonPartition:
		in.stats.PartitionDrops++
	case ReasonLoss:
		in.stats.Lost++
	}
	if d.Dup {
		in.stats.Dups++
	}
	return d
}

// DeliverStateless decides the fate of one message as a pure function of
// (seed, direction a→b, seq), so the verdict is independent of global
// delivery order: any shard, and any goroutine of a live transport, can
// evaluate it. nowMS positions the message against the partition window,
// which is checked first. Loss, duplication and jitter then read disjoint
// bit fields of one hash word, so they are independent of each other; a→b
// and b→a are independent streams.
//
// No Stats are tallied — the function is pure; callers own their delivery
// accounting (Deliver, shard.Stats, transport.Loopback's drop log).
func (in *Injector) DeliverStateless(a, b int, seq uint64, nowMS float64) Delivery {
	if in == nil {
		return Delivery{}
	}
	if in.Partitioned(a, b, nowMS) {
		return Delivery{Lost: true, Reason: ReasonPartition}
	}
	var d Delivery
	if !(in.cfg.LossProb > 0 || in.cfg.DupProb > 0 || in.cfg.JitterMS > 0) {
		return d // no per-message probability: nothing to hash
	}
	x := verdictWord(in.cfg.Seed, a, b, seq)
	if in.cfg.LossProb > 0 && field(x, fieldLoss) < in.cfg.LossProb {
		return Delivery{Lost: true, Reason: ReasonLoss}
	}
	if in.cfg.DupProb > 0 && field(x, fieldDup) < in.cfg.DupProb {
		d.Dup = true
	}
	d.DelayMS = field(x, fieldJitter) * in.cfg.JitterMS
	return d
}

// JitterStateless returns only the jitter component of the stateless
// verdict for (a→b, seq): the field DeliverStateless reads, with the loss
// and duplication verdicts ignored. Two uses need it: duplicate copies
// (their existence was decided by the original's Dup bit, but their delay
// is keyed by their own sequence number) and loss-exempt messages such as
// the sharded engine's swap acknowledgment, which still jitters but never
// drops.
func (in *Injector) JitterStateless(a, b int, seq uint64) float64 {
	if in == nil || in.cfg.JitterMS <= 0 {
		return 0
	}
	return field(verdictWord(in.cfg.Seed, a, b, seq), fieldJitter) * in.cfg.JitterMS
}

// verdictWord folds (seed, directed link, sequence number) into one key
// and mixes it once: every per-message verdict of that message reads a
// field of the result. Direction matters: a→b and b→a are independent
// message streams.
func verdictWord(seed uint64, a, b int, seq uint64) uint64 {
	return rng.Mix((seed ^ 0x9e3779b97f4a7c15) + uint64(a)*0xc2b2ae3d27d4eb4f +
		uint64(b)*0x165667b19e3779f9 + seq*0xd6e8feb86659fd93)
}

// The verdict word's fields: loss, duplication and jitter each read their
// own fieldBits bits, so the three are independent uniforms.
const (
	fieldBits = 21

	fieldLoss   = 0
	fieldDup    = fieldBits
	fieldJitter = 2 * fieldBits
)

// field maps the fieldBits bits of x starting at bit shift onto [0,1).
func field(x uint64, shift uint) float64 {
	return float64(x>>shift&(1<<fieldBits-1)) / (1 << fieldBits)
}

// unit maps 64 hash bits onto [0,1) with 53-bit precision.
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// CrashAt is the crash-stop schedule: whether peer id crash-stops under
// (seed, frac) and, if so, at what time in [startMS, stopMS). One hash of
// (seed, id) decides whether, a second when, so the schedule is a pure
// function of its arguments — any shard or runtime can evaluate it for any
// peer — and, for one seed, a larger frac crashes a superset of the peers,
// each at the same time.
func CrashAt(seed uint64, id int, frac, startMS, stopMS float64) (atMS float64, ok bool) {
	if unit(crashHash(seed, id, 1)) >= frac {
		return 0, false
	}
	return startMS + float64(unit(crashHash(seed, id, 2))*(stopMS-startMS)), true
}

// crashHash folds (seed, peer, salt) through rng.Mix, one word at a time.
func crashHash(seed uint64, id int, salt uint64) uint64 {
	x := seed ^ 0xc5a5e5d1b3a91f37
	for _, w := range [...]uint64{uint64(uint32(id)), salt} {
		x = rng.Mix(x + w + 0x9e3779b97f4a7c15)
	}
	return x
}

// Windowed reports whether the schedule has a partition window.
func (in *Injector) Windowed() bool {
	return in != nil && in.cfg.PartitionStopMS > in.cfg.PartitionStartMS
}

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

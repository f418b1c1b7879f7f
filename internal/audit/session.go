// Deterministic audited sessions. A SessionConfig fully determines one
// run — physical network, overlay, protocol, schedule — so a recorded trace
// can be replayed bit-for-bit and a failing run can be shrunk to the
// smallest event prefix that still reproduces its violation. This is the
// engine behind every `proptrace` run: bare, `record` and `replay`.
package audit

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gnutella"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// SessionConfig determines one audited PROP session. Together with the trace
// format version it is everything a replay needs; it travels in the trace
// file Header.
type SessionConfig struct {
	// Seed drives every random decision of the session.
	Seed uint64 `json:"seed"`
	// Nodes is the overlay size (default 48).
	Nodes int `json:"nodes"`
	// Policy is "PROP-G" (default) or "PROP-O".
	Policy string `json:"policy"`
	// NHops is the probing-walk TTL (default 2).
	NHops int `json:"nhops"`
	// M is the PROP-O exchange size; 0 means the overlay's minimum degree.
	M int `json:"m,omitempty"`
	// Minutes is the simulated duration (default 30).
	Minutes float64 `json:"minutes"`
	// Preset names the physical network, a netsim.Preset: "ts-small"
	// (default) or "ts-large".
	Preset string `json:"preset"`
	// Interval is the auditor sampling interval; <= 0 selects the build
	// default (every event under -tags auditstrict).
	Interval int `json:"interval,omitempty"`
	// MaxEvents, when positive, bounds the run to that many engine steps
	// instead of the Minutes deadline — the shrinking knob.
	MaxEvents uint64 `json:"max_events,omitempty"`
	// Fault injects a deliberate invariant violation: "" (none),
	// "ghost-edge" (silently add a logical edge, breaking the frozen
	// PROP-G topology and the degree sequence), or "drop-edge" (silently
	// remove one, additionally risking disconnection).
	Fault string `json:"fault,omitempty"`
	// FaultAfter is how many exchanges run cleanly before the fault fires
	// (default 0: corrupt the first exchange).
	FaultAfter int `json:"fault_after,omitempty"`
}

// WithDefaults fills unset fields. Replay depends on this being applied
// identically on record and replay, so it is part of the trace contract.
func (c SessionConfig) WithDefaults() SessionConfig {
	if c.Nodes == 0 {
		c.Nodes = 48
	}
	if c.Policy == "" {
		c.Policy = core.PROPG.String()
	}
	if c.NHops == 0 {
		c.NHops = 2
	}
	if c.Minutes == 0 {
		c.Minutes = 30
	}
	if c.Preset == "" {
		c.Preset = netsim.TSSmall().Name
	}
	return c
}

// policy parses the Policy field.
func (c SessionConfig) policy() (core.Policy, error) {
	switch strings.ToUpper(strings.ReplaceAll(c.Policy, "-", "")) {
	case "PROPG", "G":
		return core.PROPG, nil
	case "PROPO", "O":
		return core.PROPO, nil
	}
	return 0, fmt.Errorf("audit: unknown policy %q (want PROP-G or PROP-O)", c.Policy)
}

// validate rejects a defaulted config no session can run: it is checked
// before the first random draw, so a bad command line fails fast.
func (c SessionConfig) validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("audit: %d nodes, want >= 2", c.Nodes)
	case c.MaxEvents == 0 && !(c.Minutes > 0 && !math.IsInf(c.Minutes, 1)):
		return fmt.Errorf("audit: %v minutes, want finite and > 0", c.Minutes)
	case c.Fault != "" && c.Fault != "ghost-edge" && c.Fault != "drop-edge":
		return fmt.Errorf("audit: unknown fault %q (want ghost-edge or drop-edge)", c.Fault)
	case c.FaultAfter < 0:
		return fmt.Errorf("audit: fault after %d exchanges, want >= 0", c.FaultAfter)
	}
	return nil
}

// Session is one finished audited session: the auditor's report and the
// world it ran on.
type Session struct {
	*Auditor
	// Net is the session's physical network.
	Net *netsim.Network
	// Overlay is the optimized overlay as the last event left it.
	Overlay *overlay.Overlay
	// Counters are the protocol's message and probe tallies.
	Counters metrics.Counters
	// BeforeMS is the overlay's mean link latency before the first event.
	BeforeMS float64
}

// RunSession executes one audited session described by cfg. Every traced
// record is forwarded to emit (which may be nil); the returned session's
// auditor holds the violation report. A final invariant evaluation always
// runs after the last event, so a corrupted run is flagged even if the
// sampling interval skipped the corrupting event.
func RunSession(cfg SessionConfig, emit func(Record)) (*Session, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pol, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	preset, err := netsim.Preset(cfg.Preset)
	if err != nil {
		return nil, err
	}

	r := rng.New(cfg.Seed)
	net, err := netsim.Generate(preset, r)
	if err != nil {
		return nil, err
	}
	oracle := netsim.NewOracle(net)
	o, err := gnutella.Build(net.PickHosts(cfg.Nodes, r), gnutella.DefaultConfig(), oracle.Latency, r)
	if err != nil {
		return nil, err
	}

	ccfg := core.DefaultConfig(pol)
	ccfg.NHops = cfg.NHops
	ccfg.M = cfg.M
	prot, err := core.New(o, ccfg, r)
	if err != nil {
		return nil, err
	}

	a := New(cfg.Interval, 0)
	a.Recorder().Emit = emit
	a.Register(OverlayBijection(o), OverlayConnected(o), DegreeSequencePreserved(o))
	if pol == core.PROPG {
		a.Register(TopologyFrozen(o))
	}

	eng := event.New()
	a.AttachEngine(eng)

	exchanges := 0
	prot.Trace = func(ev core.ExchangeEvent) {
		if cfg.Fault != "" && exchanges == cfg.FaultAfter {
			injectFault(o, cfg.Fault, ev)
		}
		exchanges++
		a.Observe(Record{At: float64(ev.At), Kind: KindExchange,
			A: ev.U, B: ev.V, Aux: []int{ev.Moved}, Val: ev.Var})
	}
	prot.Probe = func(pe core.ProbeEvent) {
		exch := 0.0
		if pe.Exchanged {
			exch = 1
		}
		a.Observe(Record{At: float64(pe.At), Kind: KindProbe,
			A: pe.U, B: pe.Partner, Val: exch})
	}

	before := o.MeanLinkLatency()
	prot.Start(eng)
	if cfg.MaxEvents > 0 {
		for eng.Steps() < cfg.MaxEvents && eng.Step() {
		}
	} else {
		eng.RunUntil(event.Time(cfg.Minutes * 60_000))
	}
	a.CheckNow()
	return &Session{Auditor: a, Net: net, Overlay: o, Counters: prot.Counters, BeforeMS: before}, nil
}

// injectFault corrupts the overlay behind the protocol's back — the mutation
// test's deliberately broken exchange. Both faults silently edit the logical
// graph, exactly the class of bug (a routing-table rewrite missed during a
// PROP-G identifier swap) the topology invariants exist to catch.
func injectFault(o *overlay.Overlay, fault string, ev core.ExchangeEvent) {
	switch fault {
	case "ghost-edge":
		alive := o.AliveSlots()
		for i := 0; i < len(alive); i++ {
			for j := i + 1; j < len(alive); j++ {
				if !o.Logical.HasEdge(alive[i], alive[j]) {
					o.Logical.MustAddEdge(alive[i], alive[j], 1)
					return
				}
			}
		}
	case "drop-edge":
		for _, nb := range o.Neighbors(ev.U) {
			o.RemoveEdge(ev.U, nb)
			return
		}
	}
}

// Replay re-runs cfg and compares the produced trace against want. It
// returns nil when the streams are identical, and otherwise an error naming
// the first divergent record — the determinism check behind
// `proptrace replay`.
func Replay(cfg SessionConfig, want []Record) error {
	var got []Record
	if _, err := RunSession(cfg, func(rec Record) { got = append(got, rec) }); err != nil {
		return err
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if !got[i].equal(want[i]) {
			return fmt.Errorf("audit: replay diverged at record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("audit: replay produced %d records, trace has %d", len(got), len(want))
	}
	return nil
}

// Shrink minimizes a failing session: it runs cfg, finds its first violation
// named name (any violation if name is empty), and binary-searches the
// smallest MaxEvents bound that still reproduces a violation of the same
// name. It returns the shrunk config and the violation observed at that
// bound. Shrinking a clean session is an error.
func Shrink(cfg SessionConfig, name string) (SessionConfig, *Violation, error) {
	cfg = cfg.WithDefaults()
	full, err := RunSession(cfg, nil)
	if err != nil {
		return cfg, nil, err
	}
	target := findViolation(full.Violations(), name)
	if target == nil {
		return cfg, nil, fmt.Errorf("audit: no violation %sto shrink", quoted(name))
	}

	reproduce := func(bound uint64) *Violation {
		c := cfg
		c.MaxEvents = bound
		a, err := RunSession(c, nil)
		if err != nil {
			return nil
		}
		return findViolation(a.Violations(), target.Name)
	}

	// The violation first becomes observable at the engine step that ran the
	// corrupting event; every larger bound also reproduces it (RunSession's
	// final CheckNow sees the corrupted state). Binary search the boundary.
	lo, hi := uint64(1), target.Step
	if hi == 0 {
		hi = full.EngineSteps()
	}
	best := reproduce(hi)
	if best == nil {
		return cfg, nil, fmt.Errorf("audit: violation %q did not reproduce at step bound %d", target.Name, hi)
	}
	bestBound := hi
	for lo < hi {
		mid := lo + (hi-lo)/2
		if v := reproduce(mid); v != nil {
			best, bestBound, hi = v, mid, mid
		} else {
			lo = mid + 1
		}
	}
	cfg.MaxEvents = bestBound
	return cfg, best, nil
}

// findViolation returns the first violation matching name ("" matches any).
func findViolation(vs []Violation, name string) *Violation {
	for i := range vs {
		if name == "" || vs[i].Name == name {
			return &vs[i]
		}
	}
	return nil
}

func quoted(name string) string {
	if name == "" {
		return ""
	}
	return fmt.Sprintf("%q ", name)
}

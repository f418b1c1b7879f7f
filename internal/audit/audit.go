// Package audit implements the online invariant auditor and the structured
// trace/replay subsystem of the PROP reproduction.
//
// The paper's correctness argument rests on invariants the protocols must
// maintain at every step: PROP-G exchanges leave the logical topology
// isomorphic (Theorem 2) and the slot↔host mapping a bijection; PROP-O
// preserves the degree sequence and connectivity (Theorem 1); every DHT
// lookup terminates at the key's owner; the event engine's clock is
// monotonic with FIFO tie-breaking. Example-based tests spot-check these;
// the auditor checks them *during* runs — continuously under the
// `auditstrict` build tag (or experiment.Options.Audit), or at a sampling
// interval so full-scale runs stay fast.
//
// Every observed event is also appended to a trace Recorder. When an
// invariant fails, the resulting Violation carries the recent trace window,
// and — because sessions are deterministic in their SessionConfig — the
// whole run can be replayed and shrunk to a minimal reproducer (see
// session.go and `proptrace record`/`replay`).
//
// The entry points are Auditor (online invariant evaluation over the
// event stream) and the trace artifacts (Record, ReadTrace, Replay,
// Shrink). DESIGN.md §6 lays out the testing strategy this implements;
// EXPERIMENTS.md ("Auditing & replay") shows the workflows.
package audit

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/event"
)

// Invariant is one named predicate over live system state. Check returns
// nil while the invariant holds.
type Invariant struct {
	Name  string
	Check func() error
}

// Check wraps a name and predicate as an Invariant — the adapter for the
// per-overlay CheckInvariants methods.
func Check(name string, f func() error) Invariant {
	return Invariant{Name: name, Check: f}
}

// Violation is one detected invariant failure, with enough trace context to
// reproduce it.
type Violation struct {
	// Name is the failing invariant.
	Name string
	// Err describes the failure.
	Err string
	// Seq is the trace sequence number at detection (the last observed
	// record).
	Seq uint64
	// Step is the engine step count at detection (0 if no engine attached).
	Step uint64
	// At is the simulated time of the last observed record.
	At float64
	// Window is the recent trace leading up to the failure.
	Window []Record
}

// String renders the violation on one line: the invariant, when it broke
// and why.
func (v Violation) String() string {
	return fmt.Sprintf("invariant %q violated at t=%.1fms (event %d, step %d): %s",
		v.Name, v.At, v.Seq, v.Step, v.Err)
}

// Auditor evaluates registered invariants against observed events and
// records the trace.
type Auditor struct {
	// MaxViolations bounds how many violations are retained (each carries a
	// trace window); further failures only increment Dropped. Default 16.
	MaxViolations int

	interval   int
	rec        *Recorder
	invs       []Invariant
	violations []Violation
	dropped    int
	checks     uint64
	lastAt     float64

	// Engine observation state.
	engSteps uint64
	engAt    event.Time
	engSeq   uint64
	engSeen  bool
}

// New returns an auditor evaluating invariants every interval observed
// events. interval <= 0 selects the build default: 1 (every event) under
// the auditstrict tag, DefaultInterval otherwise. window sizes the trace
// ring (<= 0 for DefaultWindow).
func New(interval, window int) *Auditor {
	if interval <= 0 {
		if Strict {
			interval = 1
		} else {
			interval = DefaultInterval
		}
	}
	return &Auditor{MaxViolations: 16, interval: interval, rec: NewRecorder(window)}
}

// Recorder exposes the trace recorder (e.g. to attach a Sink).
func (a *Auditor) Recorder() *Recorder { return a.rec }

// Register adds invariants to the evaluation set.
func (a *Auditor) Register(invs ...Invariant) {
	a.invs = append(a.invs, invs...)
}

// Observe appends rec to the trace and, on every interval-th event,
// evaluates all registered invariants. It returns the stamped record.
func (a *Auditor) Observe(rec Record) Record {
	stamped := a.rec.Append(rec)
	a.lastAt = stamped.At
	if a.rec.Total()%uint64(a.interval) == 0 {
		a.CheckNow()
	}
	return stamped
}

// CheckNow evaluates every registered invariant immediately, recording
// violations.
func (a *Auditor) CheckNow() {
	for _, inv := range a.invs {
		a.checks++
		if err := inv.Check(); err != nil {
			a.fail(inv.Name, err)
		}
	}
}

// Fail records an externally detected violation (e.g. a livesim lookup that
// terminated at the wrong owner) with the current trace window.
func (a *Auditor) Fail(name string, err error) {
	a.fail(name, err)
}

func (a *Auditor) fail(name string, err error) {
	if len(a.violations) >= a.MaxViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations, Violation{
		Name:   name,
		Err:    err.Error(),
		Seq:    a.rec.Total(),
		Step:   a.engSteps,
		At:     a.lastAt,
		Window: a.rec.Window(),
	})
}

// AttachEngine hooks the auditor into an event engine, verifying the
// engine's own invariants on every executed event: the clock never moves
// backwards, and equal-time events run in FIFO (scheduling) order. An
// existing observer is chained, not replaced.
func (a *Auditor) AttachEngine(e *event.Engine) {
	prev := e.Observer
	e.Observer = func(at event.Time, seq uint64) {
		a.engSteps++
		if a.engSeen {
			if at < a.engAt {
				a.fail("event-monotonic-clock",
					fmt.Errorf("event at t=%v executed after t=%v", at, a.engAt))
			} else if at == a.engAt && seq <= a.engSeq {
				a.fail("event-fifo-order",
					fmt.Errorf("equal-time events out of FIFO order: seq %d after %d at t=%v",
						seq, a.engSeq, at))
			}
		}
		a.engSeen = true
		a.engAt, a.engSeq = at, seq
		if prev != nil {
			prev(at, seq)
		}
	}
}

// AttachProtocol feeds the protocol's cycle hook to Observe: an executed
// exchange becomes a KindExchange record (U, V, Moved, Var), and every
// cycle then a KindProbe record (U, partner, 1 if it exchanged). An
// existing hook is chained and runs first, so a hook that edits the overlay
// acts before the records are observed.
func (a *Auditor) AttachProtocol(p *core.Protocol) {
	prev := p.Trace
	p.Trace = func(ev core.CycleEvent) {
		if prev != nil {
			prev(ev)
		}
		exch := 0.0
		if ev.Reason == core.Exchanged {
			exch = 1
			a.Observe(Record{At: float64(ev.At), Kind: KindExchange,
				A: ev.U, B: ev.V, Aux: []int{ev.Moved}, Val: ev.Var})
		}
		a.Observe(Record{At: float64(ev.At), Kind: KindProbe,
			A: ev.U, B: ev.V, Val: exch})
	}
}

// Violations returns the recorded violations.
func (a *Auditor) Violations() []Violation { return a.violations }

// Events reports how many records have been observed.
func (a *Auditor) Events() uint64 { return a.rec.Total() }

// Checks reports how many invariant evaluations have run.
func (a *Auditor) Checks() uint64 { return a.checks }

// EngineSteps reports how many engine events have been observed.
func (a *Auditor) EngineSteps() uint64 { return a.engSteps }

// Err returns the first violation as an error, or nil.
func (a *Auditor) Err() error {
	if len(a.violations) == 0 {
		return nil
	}
	return fmt.Errorf("audit: %s", a.violations[0])
}

// Summary renders a one-line audit report: event/check counts and the
// violation tally — the string experiments attach to Result.Notes.
func (a *Auditor) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d events, %d engine steps, %d checks (interval %d), %d invariants",
		a.Events(), a.engSteps, a.checks, a.interval, len(a.invs))
	if n := len(a.violations) + a.dropped; n > 0 {
		fmt.Fprintf(&b, ", %d VIOLATIONS (first: %s)", n, a.violations[0].String())
	} else {
		b.WriteString(", 0 violations")
	}
	return b.String()
}

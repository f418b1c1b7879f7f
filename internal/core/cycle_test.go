package core

// The probe cycle's transition table (cycle.go): every input in every
// phase, and every way a cycle ends, under PROP-G and PROP-O.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// machine is one peer's cycle under test, probing from slot u to partner v
// along path, with the round and scratch it plans into.
type machine struct {
	o       *overlay.Overlay
	u, v    int
	path    []int
	cfg     Config
	c       Cycle
	rd      Round
	sc      overlay.Scratch
	resends []Step
}

func newMachine(o *overlay.Overlay, policy Policy, minVar float64, path []int) *machine {
	m := &machine{o: o, u: path[0], v: path[len(path)-1], path: path, cfg: DefaultConfig(policy)}
	m.cfg.MinVar = minVar
	m.c.TimerMS = m.cfg.InitTimerMS
	m.rd = NewRound(&m.cfg, 1, rng.New(1), &m.sc)
	return m
}

// pathWorld is a path 2-0-1-3 whose ends sit next to the wrong middle:
// hosts 0 and 100 are at slots 0 and 1, their leaf neighbors host 101 and
// 1. Slot 0 reaches slot 1 through its first hop 1, and exchanging them
// shortens every link.
func pathWorld(t *testing.T, policy Policy, minVar float64) *machine {
	o := tinyOverlay(t, []int{0, 100, 101, 1})
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}} {
		if err := o.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return newMachine(o, policy, minVar, []int{0, 1})
}

// measure fills the round's batch with rtt over each listed host pair and
// reports all of them measured.
func (m *machine) measure(rtt func(a, b int) float64) int {
	for k, pr := range m.sc.Pairs {
		m.sc.RTT[k] = rtt(pr[0], pr[1])
	}
	return len(m.sc.Pairs)
}

// inputs are the machine's inputs as a driver feeds them, by name; the
// suffixed variants are the same input with other data.
var inputs = map[string]func(m *machine) Step{
	"Fired":        func(m *machine) Step { return m.c.Fired(&m.rd, m.o.Neighbors(m.u)) },
	"Fired(alone)": func(m *machine) Step { return m.c.Fired(&m.rd, nil) },
	"WalkStuck":    func(m *machine) Step { return m.c.WalkStuck(&m.rd) },
	"WalkLost": func(m *machine) Step {
		step := m.c.WalkLost(&m.rd)
		if step.Kind == Resend {
			m.resends = append(m.resends, step)
		}
		return step
	},
	"Retransmit":        func(m *machine) Step { return m.c.Retransmit(uint32(m.c.cycle)) },
	"Retransmit(stale)": func(m *machine) Step { return m.c.Retransmit(uint32(m.c.cycle) - 1) },
	"Reached":           func(m *machine) Step { return m.c.Reached(&m.rd, m.o, m.u, m.v, m.path) },
	"Reached(gone)":     func(m *machine) Step { return m.c.Reached(&m.rd, m.o, -1, m.v, m.path) },
	"Reached(self)":     func(m *machine) Step { return m.c.Reached(&m.rd, m.o, m.u, m.u, m.path) },
	"Measured":          func(m *machine) Step { return m.c.Measured(&m.rd, m.measure(lineLat)) },
	"Measured(NaN)": func(m *machine) Step {
		return m.c.Measured(&m.rd, m.measure(func(a, b int) float64 { return math.NaN() }))
	},
	"Measured(short)": func(m *machine) Step { return m.c.Measured(&m.rd, 0) },
	"Committed": func(m *machine) Step {
		// A driver commits only when the cycle asked it to.
		ok := m.c.phase != committing || m.rd.Ev.Commit(m.o, m.path) == nil
		return m.c.Committed(&m.rd, ok)
	},
	"Committed(refused)": func(m *machine) Step { return m.c.Committed(&m.rd, false) },
	"Reset":              func(m *machine) Step { return m.c.Reset(&m.rd) },
}

// feed runs the named inputs in order and returns the steps they yield.
func (m *machine) feed(t *testing.T, script ...string) []Step {
	t.Helper()
	var steps []Step
	for _, name := range script {
		in, ok := inputs[name]
		if !ok {
			t.Fatalf("no input %q", name)
		}
		steps = append(steps, in(m))
	}
	return steps
}

// snapshot renders everything an input may change.
func (m *machine) snapshot() string {
	c := &m.c
	return fmt.Sprint(c.Queue, c.Trials, c.TimerMS, c.seq, c.hop, c.Txn, c.attempt, c.phase,
		m.rd.V, m.rd.Ev, m.rd.Var, overlayState(m.o))
}

// TestCycleTransitions tables every input in every phase: the step it
// yields and the phase it leaves. An input the table does not list for a
// phase is out of phase, and must be Ignored with nothing changed — the
// machine, the round and the overlay.
func TestCycleTransitions(t *testing.T) {
	type want struct {
		kind   StepKind
		reason Reason
		next   phase
	}
	rearm := want{Rearm, 0, idle}
	prefix := map[phase][]string{
		idle:       nil,
		walking:    {"Fired"},
		waiting:    {"Fired", "WalkLost"},
		measuring:  {"Fired", "Reached"},
		committing: {"Fired", "Reached", "Measured"},
	}
	table := map[phase]map[string]want{
		idle: {
			"Fired":        {Walk, 0, walking},
			"Fired(alone)": {End, NoFirstHop, idle},
			"Reset":        rearm,
		},
		walking: {
			"WalkStuck":     {End, WalkFailed, idle},
			"WalkLost":      {Resend, 0, waiting},
			"Reached":       {Measure, 0, measuring},
			"Reached(gone)": {End, PartnerGone, idle},
			"Reached(self)": {End, PartnerGone, idle},
			"Reset":         rearm,
		},
		waiting: {
			"Retransmit": {Walk, 0, walking},
			"Reset":      rearm,
		},
		measuring: {
			"Measured":        {Commit, 0, committing},
			"Measured(NaN)":   {End, BelowMinVar, idle},
			"Measured(short)": {End, Poisoned, idle},
			"Reset":           rearm,
		},
		committing: {
			"Committed":          {End, Exchanged, idle},
			"Committed(refused)": {End, Refused, idle},
			"Reset":              rearm,
		},
	}
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, policy := range []Policy{PROPG, PROPO} {
		for ph := idle; ph <= committing; ph++ {
			for _, name := range names {
				m := pathWorld(t, policy, 0)
				m.feed(t, prefix[ph]...)
				if m.c.phase != ph {
					t.Fatalf("%v: prefix %v left phase %d, want %d", policy, prefix[ph], m.c.phase, ph)
				}
				before := m.snapshot()
				step := m.feed(t, name)[0]
				w, listed := table[ph][name]
				if !listed {
					if step != (Step{}) || m.snapshot() != before {
						t.Errorf("%v phase %d, out-of-phase %s: step %+v, state %s → %s; want Ignore and no change",
							policy, ph, name, step, before, m.snapshot())
					}
					continue
				}
				if step.Kind != w.kind || step.Reason != w.reason || m.c.phase != w.next {
					t.Errorf("%v phase %d, %s: step %+v into phase %d, want kind %d reason %d into phase %d",
						policy, ph, name, step, m.c.phase, w.kind, w.reason, w.next)
				}
			}
		}
	}
}

// TestCycleResetAbsorbsRetransmit: a churn Reset while a retransmit is
// pending abandons the cycle without Finish, and the retransmit's timer
// firing afterwards — before or after the next cycle opens — is Ignored,
// not resent. The next cycle starts a fresh retry budget.
func TestCycleResetAbsorbsRetransmit(t *testing.T) {
	m := pathWorld(t, PROPG, 0)
	m.c.TimerMS = 4 * m.cfg.InitTimerMS
	steps := m.feed(t, "Fired", "WalkLost")
	armed, trials := steps[1], m.c.Trials
	if armed.Kind != Resend || armed.Attempt != 0 {
		t.Fatalf("first loss: %+v, want Resend of attempt 0", armed)
	}
	if step := m.c.Reset(&m.rd); step.Kind != Rearm || step.Delay != m.cfg.InitTimerMS {
		t.Fatalf("Reset: %+v, want Rearm at INIT_TIMER", step)
	}
	if step := m.c.Retransmit(armed.Txn); step.Kind != Ignore {
		t.Fatalf("retransmit after Reset: %+v, want Ignore", step)
	}
	m.feed(t, "Fired")
	if step := m.c.Retransmit(armed.Txn); step.Kind != Ignore {
		t.Fatalf("retransmit in the next cycle: %+v, want Ignore", step)
	}
	next := m.feed(t, "WalkLost")[0]
	if next.Kind != Resend || next.Attempt != 0 || next.Txn == armed.Txn {
		t.Fatalf("next cycle's first loss: %+v, want Resend of attempt 0 under a new transaction", next)
	}
	if step := m.c.Retransmit(armed.Txn); step.Kind != Ignore {
		t.Fatalf("retransmit while the next cycle waits: %+v, want Ignore", step)
	}
	if step := m.c.Retransmit(next.Txn); step.Kind != Walk {
		t.Fatalf("the next cycle's own retransmit: %+v, want Walk", step)
	}
	if m.c.Trials != trials+1 {
		t.Fatalf("trials %d → %d, want one more cycle", trials, m.c.Trials)
	}
}

// TestRetransmitKeepsFirstHop pins Retransmit's promise: every resent walk
// leaves through the first hop Fired chose, for as long as the retry budget
// lasts.
func TestRetransmitKeepsFirstHop(t *testing.T) {
	for _, policy := range []Policy{PROPG, PROPO} {
		m := pathWorld(t, policy, 0)
		fired := m.feed(t, "Fired")[0]
		if fired.Kind != Walk {
			t.Fatalf("%v: Fired gave %+v, want Walk", policy, fired)
		}
		for attempt := 0; attempt < maxRetries; attempt++ {
			resend := m.feed(t, "WalkLost")[0]
			if resend.Kind != Resend || resend.Attempt != attempt {
				t.Fatalf("%v: loss %d gave %+v, want Resend of attempt %d", policy, attempt, resend, attempt)
			}
			if step := m.c.Retransmit(resend.Txn); step.Kind != Walk || step.Hop != fired.Hop {
				t.Fatalf("%v: retransmit %d gave %+v, want Walk through first hop %d", policy, attempt, step, fired.Hop)
			}
		}
	}
}

// endRow is one way a cycle ends: its inputs, and the Reason.
type endRow struct {
	name   string
	minVar float64
	script []string
	want   Reason
}

// runEnd drives m through row after warm-up, from a backed-off timer, and
// checks what every cycle end owes: exactly one End step, last, for the
// row's Reason; Finish's standing and timer effects for it — success
// promotes the first hop and resets the timer, every other end demotes it
// to the tail and doubles the timer; a round naming the partner once the
// walk reached one; and an overlay changed only by an exchange.
func runEnd(t *testing.T, m *machine, row endRow) {
	t.Helper()
	name := fmt.Sprintf("%v %s", m.cfg.Policy, row.name)
	m.c.Trials = m.cfg.MaxInitTrials
	m.c.TimerMS = 4 * m.cfg.InitTimerMS
	before := overlayState(m.o)
	script := row.script
	steps := m.feed(t, script[:1]...)
	queue := slices.Clone(m.c.Queue)
	steps = append(steps, m.feed(t, script[1:]...)...)
	last := steps[len(steps)-1]
	for i, step := range steps[:len(steps)-1] {
		if step.Kind == End || step.Kind == Ignore {
			t.Fatalf("%s: input %d (%s) gave %+v before the cycle's end", name, i, script[i], step)
		}
	}
	if last.Kind != End || last.Reason != row.want {
		t.Fatalf("%s: last step %+v, want End for reason %d", name, last, row.want)
	}
	wantTimer := 8 * m.cfg.InitTimerMS
	if row.want == Exchanged {
		wantTimer = m.cfg.InitTimerMS
	}
	if last.Delay != wantTimer || m.c.TimerMS != wantTimer {
		t.Fatalf("%s: next cycle in %v (timer %v), want %v", name, last.Delay, m.c.TimerMS, wantTimer)
	}
	if len(queue) > 0 {
		hop := slices.IndexFunc(queue, func(qe QueueEntry) bool { return qe.Neighbor == steps[0].Hop })
		want := (&Peer{Queue: queue}).maxPrio() + 1
		if row.want == Exchanged {
			want = queue[hop].Prio - 1
		}
		if got := m.c.Queue[hop].Prio; got != want {
			t.Fatalf("%s: first hop's priority %d → %d, want %d", name, queue[hop].Prio, got, want)
		}
	}
	if reached := row.want >= PartnerGone; (m.rd.V == -1) == reached {
		t.Fatalf("%s: round names partner %d (reached: %v)", name, m.rd.V, reached)
	}
	if changed := overlayState(m.o) != before; changed != (row.want == Exchanged) {
		t.Fatalf("%s: overlay changed: %v", name, changed)
	}
}

// TestExchangeOutcomes drives one cycle to each of its ends under both
// policies (NoTrade under PROP-O only: PROP-G always has a swap to plan),
// and holds the evaluated ones to the exchange's arithmetic: a poisoned
// batch lists two pairs per moved entry, a huge MIN_VAR rejects a positive
// Var, and a commit moves 2+2 entries under PROP-G, one per side under
// PROP-O, and shortens the links.
func TestExchangeOutcomes(t *testing.T) {
	lost := []string{"Fired", "WalkLost"}
	for i := 0; i < maxRetries; i++ {
		lost = append(lost, "Retransmit", "WalkLost")
	}
	rows := []endRow{
		{name: "empty queue", script: []string{"Fired(alone)"}, want: NoFirstHop},
		{name: "stuck walk", script: []string{"Fired", "WalkStuck"}, want: WalkFailed},
		{name: "1 + maxRetries losses", script: lost, want: WalkLost},
		{name: "peer moved", script: []string{"Fired", "Reached(gone)"}, want: PartnerGone},
		{name: "self", script: []string{"Fired", "Reached(self)"}, want: PartnerGone},
		{name: "lossy measure", script: []string{"Fired", "Reached", "Measured(short)"}, want: Poisoned},
		{name: "huge MIN_VAR", minVar: 1e9, script: []string{"Fired", "Reached", "Measured"}, want: BelowMinVar},
		{name: "refused", script: []string{"Fired", "Reached", "Measured", "Committed(refused)"}, want: Refused},
		{name: "exchange", script: []string{"Fired", "Reached", "Measured", "Committed"}, want: Exchanged},
	}
	wantMoved := map[Policy]int{PROPG: 4, PROPO: 2}
	for _, policy := range []Policy{PROPG, PROPO} {
		for _, row := range rows {
			m := pathWorld(t, policy, row.minVar)
			linkMS := m.o.MeanLinkLatency()
			runEnd(t, m, row)
			switch row.want {
			case WalkLost:
				for k, step := range m.resends {
					if step.Attempt != k {
						t.Fatalf("%v: resend %d backs off as attempt %d", policy, k, step.Attempt)
					}
				}
			case Poisoned:
				if moved := m.rd.Ev.Moved; moved == 0 || len(m.sc.Pairs) != 2*moved {
					t.Fatalf("%v: poisoned over %d pairs (moved %d), want 2 per entry", policy, len(m.sc.Pairs), moved)
				}
			case BelowMinVar:
				if m.rd.Var <= 0 {
					t.Fatalf("%v: Var %v under a huge MIN_VAR, want positive", policy, m.rd.Var)
				}
			case Exchanged:
				if m.rd.Var <= 0 || m.rd.Ev.Moved != wantMoved[policy] {
					t.Fatalf("%v: Var %v moved %d, want positive Var and %d moved", policy, m.rd.Var, m.rd.Ev.Moved, wantMoved[policy])
				}
				if after := m.o.MeanLinkLatency(); after >= linkMS {
					t.Fatalf("%v: committed exchange did not shorten links (%v → %v)", policy, linkMS, after)
				}
				if err := m.o.CheckInvariants(); err != nil {
					t.Fatalf("%v: %v", policy, err)
				}
			}
		}
	}
	// Under PROP-O a walk path holding every candidate leaves no legal trade.
	m := pathWorld(t, PROPO, 0)
	m.path = []int{0, 2, 3, 1}
	runEnd(t, m, endRow{name: "banned trade", script: []string{"Fired", "Reached"}, want: NoTrade})
}

// TestExchangeRejectsNaNVar: a batch of NaN RTTs folds into a NaN Var, and
// NaN is not above MIN_VAR — the exchange must be rejected, not committed,
// under either policy, with the overlay untouched.
func TestExchangeRejectsNaNVar(t *testing.T) {
	for _, policy := range []Policy{PROPG, PROPO} {
		// A 6-slot ring: u=0 and v=2 sit two hops apart, and 5 and 3 are
		// legal PROP-O trades.
		o := tinyOverlay(t, []int{0, 100, 1, 101, 2, 102})
		for s := 0; s < 6; s++ {
			if err := o.AddEdge(s, (s+1)%6); err != nil {
				t.Fatal(err)
			}
		}
		m := newMachine(o, policy, 0, []int{0, 1, 2})
		runEnd(t, m, endRow{name: "NaN RTTs", script: []string{"Fired", "Reached", "Measured(NaN)"}, want: BelowMinVar})
		if !math.IsNaN(m.rd.Var) {
			t.Fatalf("%v: NaN RTTs gave Var %v, want NaN", policy, m.rd.Var)
		}
	}
}

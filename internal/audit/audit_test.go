package audit

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/event"
)

func TestRecorderWindowAndSeq(t *testing.T) {
	rc := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec := rc.Append(Record{Kind: KindProbe, A: i})
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d stamped seq %d", i, rec.Seq)
		}
	}
	if rc.Total() != 10 {
		t.Fatalf("Total = %d, want 10", rc.Total())
	}
	w := rc.Window()
	if len(w) != 4 {
		t.Fatalf("window size %d, want 4", len(w))
	}
	for i, rec := range w {
		if want := uint64(6 + i); rec.Seq != want {
			t.Fatalf("window[%d].Seq = %d, want %d (chronological order)", i, rec.Seq, want)
		}
	}
}

func TestSinkRoundTrip(t *testing.T) {
	cfg := SessionConfig{Seed: 7, Nodes: 10, Policy: "PROP-O", Minutes: 5, Preset: "ts-small"}
	var buf bytes.Buffer
	sink := NewSink(&buf, cfg)
	recs := []Record{
		{Seq: 0, At: 1.5, Kind: KindProbe, A: 3, B: -1},
		{Seq: 1, At: 2.5, Kind: KindExchange, A: 3, B: 9, Aux: []int{2}, Val: 12.25},
		{Seq: 2, At: 3.5, Kind: KindLookup, A: 1, B: 4, Aux: []int{3, 4}, Val: 40},
	}
	for _, r := range recs {
		sink.Emit(r)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	hdr, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if hdr.Format != TraceFormat || hdr.Version != TraceVersion {
		t.Fatalf("header = %+v", hdr)
	}
	if hdr.Config != cfg {
		t.Fatalf("config round-trip: got %+v, want %+v", hdr.Config, cfg)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].equal(recs[i]) {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestReadTraceRejectsForeignFormat(t *testing.T) {
	if _, _, err := ReadTrace(strings.NewReader(`{"format":"something-else","version":1}`)); err == nil {
		t.Fatal("foreign format accepted")
	}
	if _, _, err := ReadTrace(strings.NewReader(`{"format":"prop-audit-trace","version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindProbe: "probe", KindExchange: "exchange",
		KindLookup: "lookup", KindJoin: "join", KindLeave: "leave", KindRewire: "rewire"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestAuditorSamplingInterval(t *testing.T) {
	a := New(3, 0)
	n := 0
	a.Register(Check("counter", func() error { n++; return nil }))
	for i := 0; i < 9; i++ {
		a.Observe(Record{Kind: KindProbe, A: i})
	}
	if n != 3 {
		t.Fatalf("invariant ran %d times over 9 events at interval 3, want 3", n)
	}
	if a.Err() != nil {
		t.Fatalf("clean auditor reports %v", a.Err())
	}
}

func TestAuditorRecordsViolationWithWindow(t *testing.T) {
	a := New(1, 8)
	fail := false
	a.Register(Check("flaky", func() error {
		if fail {
			return fmt.Errorf("boom")
		}
		return nil
	}))
	for i := 0; i < 5; i++ {
		a.Observe(Record{At: float64(i), Kind: KindProbe, A: i})
	}
	fail = true
	a.Observe(Record{At: 5, Kind: KindExchange, A: 1, B: 2})
	vs := a.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	v := vs[0]
	if v.Name != "flaky" || v.Seq != 6 || v.At != 5 {
		t.Fatalf("violation = %+v", v)
	}
	if len(v.Window) != 6 {
		t.Fatalf("window carries %d records, want 6", len(v.Window))
	}
	if last := v.Window[len(v.Window)-1]; last.Kind != KindExchange {
		t.Fatalf("window tail = %+v, want the triggering exchange", last)
	}
	if !strings.Contains(a.Summary(), "VIOLATIONS") {
		t.Fatalf("Summary does not flag violations: %s", a.Summary())
	}
}

func TestAuditorMaxViolations(t *testing.T) {
	a := New(1, 0)
	a.MaxViolations = 2
	a.Register(Check("always", func() error { return fmt.Errorf("no") }))
	for i := 0; i < 5; i++ {
		a.Observe(Record{Kind: KindProbe})
	}
	if len(a.Violations()) != 2 || a.Dropped() != 3 {
		t.Fatalf("retained %d, dropped %d; want 2 and 3", len(a.Violations()), a.Dropped())
	}
}

func TestEngineInvariantsOnRealEngine(t *testing.T) {
	a := New(1, 0)
	eng := event.New()
	a.AttachEngine(eng)
	for i := 0; i < 10; i++ {
		d := event.Time(10 - i) // schedule in reverse time order
		eng.After(d, func(*event.Engine) {})
		eng.After(d, func(*event.Engine) {}) // equal-time pair exercises FIFO
	}
	eng.Run(0)
	if a.EngineSteps() != 20 {
		t.Fatalf("observed %d engine steps, want 20", a.EngineSteps())
	}
	if err := a.Err(); err != nil {
		t.Fatalf("correct engine flagged: %v", err)
	}
}

func TestEngineInvariantsCatchMisbehavior(t *testing.T) {
	a := New(1, 0)
	eng := event.New()
	a.AttachEngine(eng)
	// Drive the observer directly with a stream a broken engine would
	// produce: time going backwards, then FIFO order inverted.
	eng.Observer(event.Time(5), 1)
	eng.Observer(event.Time(3), 2)
	eng.Observer(event.Time(3), 7)
	eng.Observer(event.Time(3), 6)
	names := map[string]bool{}
	for _, v := range a.Violations() {
		names[v.Name] = true
	}
	if !names["event-monotonic-clock"] {
		t.Fatalf("backwards clock not caught; violations: %v", a.Violations())
	}
	if !names["event-fifo-order"] {
		t.Fatalf("FIFO inversion not caught; violations: %v", a.Violations())
	}
}

func TestObserverChaining(t *testing.T) {
	eng := event.New()
	var chained int
	eng.Observer = func(event.Time, uint64) { chained++ }
	a := New(1, 0)
	a.AttachEngine(eng)
	eng.After(1, func(*event.Engine) {})
	eng.Run(0)
	if chained != 1 {
		t.Fatalf("pre-existing observer called %d times, want 1", chained)
	}
}

func TestLookupTerminationInvariant(t *testing.T) {
	owner := func(key uint32) int { return int(key % 4) }
	good := func(src int, key uint32) (int, int, error) { return int(key % 4), 2, nil }
	inv := LookupTermination("dht-lookup", owner, good, []int{0, 1}, []uint32{5, 6}, 3)
	if err := inv.Check(); err != nil {
		t.Fatalf("correct lookup flagged: %v", err)
	}
	wrong := func(src int, key uint32) (int, int, error) { return 0, 2, nil }
	if err := LookupTermination("dht-lookup", owner, wrong, []int{0}, []uint32{5}, 3).Check(); err == nil {
		t.Fatal("wrong-owner lookup not caught")
	}
	slow := func(src int, key uint32) (int, int, error) { return int(key % 4), 99, nil }
	if err := LookupTermination("dht-lookup", owner, slow, []int{0}, []uint32{5}, 3).Check(); err == nil {
		t.Fatal("hop-bound overrun not caught")
	}
}

func TestSessionConfigValidation(t *testing.T) {
	for _, cfg := range []SessionConfig{
		{Policy: "PROP-X"},
		{Preset: "huge"},
		{Preset: "small"}, // the version-1 name
		{Nodes: -5},
		{Minutes: math.NaN()},
		{Minutes: math.Inf(1)},
		{Minutes: -1},
		{Fault: "bogus"},
		{Fault: "drop-edge", FaultAfter: -1},
	} {
		if _, err := RunSession(cfg, nil); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
}

// cleanSession is a small session every invariant should hold on.
func cleanSession(policy string) SessionConfig {
	return SessionConfig{Seed: 11, Nodes: 24, Policy: policy, Minutes: 8, Interval: 1}
}

func TestCleanSessionsPassStrictAudit(t *testing.T) {
	for _, policy := range []string{"PROP-G", "PROP-O"} {
		t.Run(policy, func(t *testing.T) {
			a, err := RunSession(cleanSession(policy), nil)
			if err != nil {
				t.Fatalf("RunSession: %v", err)
			}
			if err := a.Err(); err != nil {
				t.Fatalf("clean %s session violates invariants: %v", policy, err)
			}
			if a.Events() == 0 || a.Checks() == 0 || a.EngineSteps() == 0 {
				t.Fatalf("audit saw nothing: %s", a.Summary())
			}
		})
	}
}

// TestMutationIsCaughtWithReplayableTrace is the acceptance test for the
// whole subsystem: a deliberately broken PROP-G exchange (a ghost logical
// edge added behind the protocol's back) must be caught by the auditor, the
// recorded trace must replay deterministically, and the failure must shrink
// to a bounded-event reproducer.
func TestMutationIsCaughtWithReplayableTrace(t *testing.T) {
	cfg := cleanSession("PROP-G")
	cfg.Fault = "ghost-edge"

	var buf bytes.Buffer
	sink := NewSink(&buf, cfg)
	a, err := RunSession(cfg, sink.Emit)
	if err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("sink: %v", err)
	}

	v := findViolation(a.Violations(), "topology-frozen")
	if v == nil {
		t.Fatalf("ghost edge not caught by topology-frozen; summary: %s", a.Summary())
	}
	if findViolation(a.Violations(), "degree-sequence") == nil {
		t.Fatalf("ghost edge not caught by degree-sequence; summary: %s", a.Summary())
	}
	if len(v.Window) == 0 {
		t.Fatal("violation carries no trace window")
	}

	// The trace file must replay bit-for-bit.
	hdr, recs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if hdr.Config != cfg {
		t.Fatalf("trace header config %+v, want %+v", hdr.Config, cfg)
	}
	if uint64(len(recs)) != a.Events() {
		t.Fatalf("trace holds %d records, auditor observed %d", len(recs), a.Events())
	}
	if err := Replay(hdr.Config, recs); err != nil {
		t.Fatalf("replay of recorded trace diverged: %v", err)
	}

	// And the failure must shrink to a bounded-event reproducer.
	shrunk, sv, err := Shrink(cfg, "topology-frozen")
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if sv.Name != "topology-frozen" {
		t.Fatalf("shrunk violation is %q", sv.Name)
	}
	if shrunk.MaxEvents == 0 || shrunk.MaxEvents > a.EngineSteps() {
		t.Fatalf("shrunk bound %d not in (0, %d]", shrunk.MaxEvents, a.EngineSteps())
	}
	// The shrunk config must still reproduce on a fresh run.
	ra, err := RunSession(shrunk, nil)
	if err != nil {
		t.Fatalf("shrunk rerun: %v", err)
	}
	if findViolation(ra.Violations(), "topology-frozen") == nil {
		t.Fatalf("shrunk config does not reproduce; summary: %s", ra.Summary())
	}
}

func TestDropEdgeFaultCaught(t *testing.T) {
	cfg := cleanSession("PROP-O")
	cfg.Fault = "drop-edge"
	a, err := RunSession(cfg, nil)
	if err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	if findViolation(a.Violations(), "degree-sequence") == nil {
		t.Fatalf("dropped edge not caught; summary: %s", a.Summary())
	}
}

func TestReplayDetectsTamperedTrace(t *testing.T) {
	cfg := cleanSession("PROP-G")
	var recs []Record
	if _, err := RunSession(cfg, func(r Record) { recs = append(recs, r) }); err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("session produced no records")
	}
	if err := Replay(cfg, recs); err != nil {
		t.Fatalf("identical replay diverged: %v", err)
	}
	tampered := append([]Record(nil), recs...)
	tampered[len(tampered)/2].A ^= 1
	if err := Replay(cfg, tampered); err == nil {
		t.Fatal("tampered trace replayed cleanly")
	}
	if err := Replay(cfg, recs[:len(recs)-1]); err == nil {
		t.Fatal("truncated trace replayed cleanly")
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	run := func(seed uint64) []Record {
		cfg := cleanSession("PROP-G")
		cfg.Seed = seed
		var recs []Record
		if _, err := RunSession(cfg, func(r Record) { recs = append(recs, r) }); err != nil {
			t.Fatalf("RunSession: %v", err)
		}
		return recs
	}
	a, b := run(1), run(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if !a[i].equal(b[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

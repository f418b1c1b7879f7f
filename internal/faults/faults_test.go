package faults

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"typical", Config{Seed: 1, LossProb: 0.05, DupProb: 0.01, JitterMS: 20, LinkFailProb: 0.02}, true},
		{"loss-negative", Config{LossProb: -0.1}, false},
		{"loss-over-one", Config{LossProb: 1.5}, false},
		{"loss-nan", Config{LossProb: math.NaN()}, false},
		{"jitter-nan", Config{JitterMS: math.NaN()}, false},
		{"dup-over-one", Config{DupProb: 2}, false},
		{"linkfail-over-one", Config{LinkFailProb: 1.01}, false},
		{"jitter-negative", Config{JitterMS: -1}, false},
		{"jitter-inf", Config{JitterMS: math.Inf(1)}, false},
		{"period-negative", Config{LinkFailPeriodMS: -5}, false},
		{"partition-inverted", Config{PartitionStartMS: 10, PartitionStopMS: 5, Isolated: map[int]bool{1: true}}, false},
		{"partition-empty", Config{PartitionStartMS: 5, PartitionStopMS: 10}, false},
		{"partition-ok", Config{PartitionStartMS: 5, PartitionStopMS: 10, Isolated: map[int]bool{1: true}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports Enabled")
	}
	d := in.Deliver(1, 2, 100)
	if d.Lost || d.Dup || d.DelayMS != 0 || d.Reason != ReasonNone {
		t.Fatalf("nil Deliver = %+v, want clean delivery", d)
	}
	if in.LinkDown(1, 2, 0) || in.Partitioned(1, 2, 0) {
		t.Fatal("nil injector reports faults")
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("nil Stats = %+v, want zero", s)
	}
}

func TestDeliverDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, LossProb: 0.1, DupProb: 0.05, JitterMS: 30, LinkFailProb: 0.03}
	run := func() []Delivery {
		in, err := NewInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Delivery, 0, 500)
		for i := 0; i < 500; i++ {
			out = append(out, in.Deliver(i%17, (i*7)%23, float64(i)*1000))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs across identical injectors: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLossAndDupRates(t *testing.T) {
	cfg := Config{Seed: 7, LossProb: 0.2, DupProb: 0.1, JitterMS: 10}
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		d := in.Deliver(0, 1, float64(i))
		if d.Lost && (d.Dup || d.DelayMS != 0) {
			t.Fatalf("lost message carries delivery side effects: %+v", d)
		}
		if d.DelayMS < 0 || d.DelayMS >= cfg.JitterMS {
			t.Fatalf("jitter %v out of [0,%v)", d.DelayMS, cfg.JitterMS)
		}
	}
	s := in.Stats()
	if s.Messages != n {
		t.Fatalf("Messages = %d, want %d", s.Messages, n)
	}
	lossRate := float64(s.Lost) / n
	if math.Abs(lossRate-cfg.LossProb) > 0.02 {
		t.Fatalf("observed loss rate %.3f, want ~%.2f", lossRate, cfg.LossProb)
	}
	// Dups are drawn only on delivered messages.
	dupRate := float64(s.Dups) / float64(n-int(s.Lost))
	if math.Abs(dupRate-cfg.DupProb) > 0.02 {
		t.Fatalf("observed dup rate %.3f, want ~%.2f", dupRate, cfg.DupProb)
	}
	if s.JitterSumMS <= 0 {
		t.Fatal("no jitter accumulated")
	}
}

func TestLinkDownConsistentWithinWindow(t *testing.T) {
	cfg := Config{Seed: 3, LinkFailProb: 0.3, LinkFailPeriodMS: 10000}
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	downAny, upAny := false, false
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			for w := 0; w < 20; w++ {
				base := float64(w) * cfg.LinkFailPeriodMS
				first := in.LinkDown(a, b, base)
				// Same window, different instants and direction: consistent.
				if got := in.LinkDown(b, a, base+cfg.LinkFailPeriodMS-1); got != first {
					t.Fatalf("link (%d,%d) window %d inconsistent: %v then %v", a, b, w, first, got)
				}
				if first {
					downAny = true
				} else {
					upAny = true
				}
			}
		}
	}
	if !downAny || !upAny {
		t.Fatalf("degenerate outage schedule: downAny=%v upAny=%v", downAny, upAny)
	}
}

func TestLinkDownConsumesNoRandomness(t *testing.T) {
	cfg := Config{Seed: 9, LossProb: 0.5, LinkFailProb: 0.5}
	mk := func(probeLinks bool) []Delivery {
		in, err := NewInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Delivery, 0, 100)
		for i := 0; i < 100; i++ {
			if probeLinks {
				// Extra queries must not perturb the per-message stream.
				in.LinkDown(i, i+1, float64(i))
				in.Partitioned(i, i+1, float64(i))
			}
			out = append(out, in.Deliver(1000, 1001, 1e9+float64(i)))
		}
		return out
	}
	a, b := mk(false), mk(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("per-message stream perturbed by outage queries at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPartitionWindow(t *testing.T) {
	cfg := Config{
		Seed:             1,
		PartitionStartMS: 1000,
		PartitionStopMS:  2000,
		Isolated:         map[int]bool{5: true, 6: true},
	}
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b int
		now  float64
		want bool
	}{
		{5, 1, 999, false},  // before window
		{5, 1, 1000, true},  // cut, window open
		{5, 1, 1999, true},  // cut, last instant
		{5, 1, 2000, false}, // window closed (half-open)
		{5, 6, 1500, false}, // both isolated: same side
		{1, 2, 1500, false}, // both mainland
	}
	for _, tc := range cases {
		if got := in.Partitioned(tc.a, tc.b, tc.now); got != tc.want {
			t.Fatalf("Partitioned(%d,%d,%v) = %v, want %v", tc.a, tc.b, tc.now, got, tc.want)
		}
		d := in.Deliver(tc.a, tc.b, tc.now)
		if tc.want && (!d.Lost || d.Reason != ReasonPartition) {
			t.Fatalf("Deliver(%d,%d,%v) = %+v, want partition drop", tc.a, tc.b, tc.now, d)
		}
	}
	if s := in.Stats(); s.PartitionDrops == 0 {
		t.Fatal("no partition drops recorded")
	}
}

func TestReasonString(t *testing.T) {
	want := map[Reason]string{
		ReasonNone:      "delivered",
		ReasonLoss:      "loss",
		ReasonLinkDown:  "link-down",
		ReasonPartition: "partition",
		Reason(99):      "Reason(99)",
	}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("Reason(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}

func TestDeliverStatelessDeterministicAndOrderFree(t *testing.T) {
	in, err := NewInjector(Config{Seed: 99, LossProb: 0.2, DupProb: 0.1, JitterMS: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The verdict for (link, seq) must not depend on what was asked before:
	// record a schedule, interleave unrelated traffic, re-ask in a different
	// order, and require identical verdicts.
	type key struct {
		a, b int
		seq  uint64
	}
	first := make(map[key]Delivery)
	for seq := uint64(0); seq < 200; seq++ {
		for _, l := range [][2]int{{1, 2}, {2, 1}, {3, 7}} {
			first[key{l[0], l[1], seq}] = in.DeliverStateless(l[0], l[1], seq, 0)
		}
	}
	for seq := uint64(199); ; seq-- {
		for _, l := range [][2]int{{3, 7}, {1, 2}, {2, 1}} {
			in.Deliver(l[0], l[1], 0) // interleaved stateful traffic must not perturb
			got := in.DeliverStateless(l[0], l[1], seq, 0)
			if want := first[key{l[0], l[1], seq}]; got != want {
				t.Fatalf("DeliverStateless(%d,%d,%d) = %+v, was %+v", l[0], l[1], seq, got, want)
			}
		}
		if seq == 0 {
			break
		}
	}
	// A second injector with the same config reproduces the schedule.
	in2, err := NewInjector(Config{Seed: 99, LossProb: 0.2, DupProb: 0.1, JitterMS: 5})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range first {
		if got := in2.DeliverStateless(k.a, k.b, k.seq, 0); got != want {
			t.Fatalf("fresh injector: DeliverStateless(%d,%d,%d) = %+v, want %+v", k.a, k.b, k.seq, got, want)
		}
	}
}

func TestDeliverStatelessRates(t *testing.T) {
	in, err := NewInjector(Config{Seed: 5, LossProb: 0.3, DupProb: 0.2, JitterMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	lost, dups := 0, 0
	var jitter float64
	for seq := uint64(0); seq < n; seq++ {
		d := in.DeliverStateless(4, 9, seq, 0)
		if d.Lost {
			if d.Reason != ReasonLoss {
				t.Fatalf("seq %d: loss with reason %v", seq, d.Reason)
			}
			lost++
			continue
		}
		if d.Dup {
			dups++
		}
		if d.DelayMS < 0 || d.DelayMS >= 10 {
			t.Fatalf("seq %d: jitter %v out of [0,10)", seq, d.DelayMS)
		}
		jitter += d.DelayMS
	}
	if r := float64(lost) / n; r < 0.27 || r > 0.33 {
		t.Fatalf("loss rate %.4f, want ~0.30", r)
	}
	if r := float64(dups) / float64(n-lost); r < 0.17 || r > 0.23 {
		t.Fatalf("dup rate %.4f, want ~0.20", r)
	}
	if mean := jitter / float64(n-lost); mean < 4 || mean > 6 {
		t.Fatalf("mean jitter %.3f, want ~5", mean)
	}
	if s := in.Stats(); s.Messages != 0 {
		t.Fatalf("stateless path tallied %d messages; it must stay pure", s.Messages)
	}
}

func TestDeliverStatelessNilAndWindows(t *testing.T) {
	var nilInj *Injector
	if d := nilInj.DeliverStateless(1, 2, 0, 0); d.Lost || d.Dup || d.DelayMS != 0 {
		t.Fatalf("nil injector verdict %+v, want clean delivery", d)
	}
	in, err := NewInjector(Config{
		Seed: 3, PartitionStartMS: 100, PartitionStopMS: 200, Isolated: map[int]bool{2: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := in.DeliverStateless(1, 2, 7, 150); !d.Lost || d.Reason != ReasonPartition {
		t.Fatalf("in-window cross-cut verdict %+v, want partition drop", d)
	}
	if d := in.DeliverStateless(1, 2, 7, 250); d.Lost {
		t.Fatalf("post-window verdict %+v, want delivery", d)
	}
}

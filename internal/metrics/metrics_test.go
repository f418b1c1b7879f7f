package metrics

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/overlay"
	"repro/internal/workload"
)

func TestMeanLookupLatencyParallelDeterministic(t *testing.T) {
	lookups := make([]workload.Lookup, 1000)
	for i := range lookups {
		lookups[i] = workload.Lookup{Src: i, Dst: i + 1}
	}
	eval := func(l workload.Lookup) float64 { return float64(l.Src % 10) }
	a, failedA := MeanLookupLatency(lookups, eval)
	b, failedB := MeanLookupLatency(lookups, eval)
	if a != b || failedA != failedB {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", a, failedA, b, failedB)
	}
	if math.Abs(a-4.5) > 1e-9 {
		t.Fatalf("mean = %v, want 4.5", a)
	}
	if failedA != 0 {
		t.Fatalf("failed = %d", failedA)
	}
}

// TestMeanLookupLatencyBlockEdges: the mean is bit-equal to a sequential
// evaluation for every worker count and for lookup counts on both sides of a
// claim-block boundary — each index is evaluated exactly once, whoever
// claims its block, and the reduction order never changes.
func TestMeanLookupLatencyBlockEdges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	eval := func(l workload.Lookup) float64 {
		if l.Src%7 == 3 {
			return math.Inf(1)
		}
		return 1 / float64(3+l.Src) // sums of these are order-sensitive
	}
	for _, count := range []int{1, lookupBlock - 1, lookupBlock, lookupBlock + 1, 1000} {
		lookups := make([]workload.Lookup, count)
		calls := make([]atomic.Int32, count)
		sum, n, wantFailed := 0.0, 0, 0
		for i := range lookups {
			lookups[i] = workload.Lookup{Src: i, Dst: i + 1}
			if v := eval(lookups[i]); math.IsInf(v, 1) {
				wantFailed++
			} else {
				sum += v
				n++
			}
		}
		want := math.Inf(1)
		if n > 0 {
			want = sum / float64(n)
		}
		counting := func(l workload.Lookup) float64 {
			calls[l.Src].Add(1)
			return eval(l)
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, failed := MeanLookupLatency(lookups, counting)
			if math.Float64bits(got) != math.Float64bits(want) || failed != wantFailed {
				t.Fatalf("count %d, GOMAXPROCS %d: mean %v failed %d, want %v / %d", count, procs, got, failed, want, wantFailed)
			}
			for i := range calls {
				if c := calls[i].Swap(0); c != 1 {
					t.Fatalf("count %d, GOMAXPROCS %d: lookup %d evaluated %d times", count, procs, i, c)
				}
			}
		}
	}
}

func TestMeanLookupLatencyFailures(t *testing.T) {
	lookups := make([]workload.Lookup, 10)
	eval := func(l workload.Lookup) float64 {
		if l.Src == 0 { // all of them: Src is zero-valued
			return math.Inf(1)
		}
		return 1
	}
	mean, failed := MeanLookupLatency(lookups, eval)
	if failed != 10 || !math.IsInf(mean, 1) {
		t.Fatalf("mean=%v failed=%d", mean, failed)
	}
	if m, f := MeanLookupLatency(nil, eval); m != 0 || f != 0 {
		t.Fatalf("empty workload: %v/%d", m, f)
	}
}

func TestFloodEvalAdapter(t *testing.T) {
	o, err := overlay.New([]int{0, 10, 30}, func(a, b int) float64 {
		return math.Abs(float64(a - b))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	eval := FloodEval(o, nil)
	if d := eval(workload.Lookup{Src: 0, Dst: 2}); d != 30 {
		t.Fatalf("FloodEval = %v, want 30", d)
	}
	mean, failed := MeanLookupLatency([]workload.Lookup{{Src: 0, Dst: 2}, {Src: 0, Dst: 1}}, eval)
	if mean != 20 || failed != 0 {
		t.Fatalf("mean=%v failed=%d", mean, failed)
	}
}

func TestCounters(t *testing.T) {
	c := Counters{
		Probes:          10,
		WalkMessages:    20,
		MeasureMessages: 80,
		NotifyMessages:  40,
		Exchanges:       5,
		Rejected:        5,
	}
	if c.Messages() != 140 {
		t.Fatalf("Messages = %d", c.Messages())
	}
	if c.ProbeMessages() != 100 {
		t.Fatalf("ProbeMessages = %d", c.ProbeMessages())
	}
	if c.MessagesPerAdjustment() != 10 {
		t.Fatalf("MessagesPerAdjustment = %v", c.MessagesPerAdjustment())
	}
	var zero Counters
	if zero.MessagesPerAdjustment() != 0 {
		t.Fatal("zero counters should report 0 per adjustment")
	}
	var sum Counters
	sum.Add(c)
	sum.Add(c)
	if sum.Probes != 20 || sum.Messages() != 280 || sum.Exchanges != 10 || sum.Rejected != 10 {
		t.Fatalf("Add wrong: %+v", sum)
	}
}

func TestAverageLatencyExact(t *testing.T) {
	// Line overlay 0-1-2 with distances 10 and 20.
	o, err := overlay.New([]int{0, 10, 30}, func(a, b int) float64 {
		return math.Abs(float64(a - b))
	})
	if err != nil {
		t.Fatal(err)
	}
	o.AddEdge(0, 1)
	o.AddEdge(1, 2)
	got, err := AverageLatency(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise: d(0,1)=10, d(0,2)=30, d(1,2)=20 each counted both ways;
	// AL = 2*(10+30+20)/9 = 120/9.
	want := 120.0 / 9
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("AL = %v, want %v", got, want)
	}
}

func TestAverageLatencyErrors(t *testing.T) {
	empty, err := overlay.New(nil, func(a, b int) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AverageLatency(empty, nil); err == nil {
		t.Fatal("empty overlay accepted")
	}
	// Disconnected overlay must error, not silently average partial data.
	o, err := overlay.New([]int{0, 10, 20}, func(a, b int) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	o.AddEdge(0, 1)
	if _, err := AverageLatency(o, nil); err == nil {
		t.Fatal("disconnected overlay accepted")
	}
}

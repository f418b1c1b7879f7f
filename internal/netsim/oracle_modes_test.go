package netsim

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// TestOracleFloat32Agreement: the float32 oracle must agree with the
// full-precision oracle to within one float32 rounding of each distance.
func TestOracleFloat32Agreement(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewOracle(net)
	o32 := NewOracleWith(net, OracleOptions{Float32: true})
	hosts := net.StubHosts
	for i := 0; i < 50; i++ {
		u := hosts[i%len(hosts)]
		v := hosts[(i*7+3)%len(hosts)]
		want := ref.Latency(u, v)
		got := o32.Latency(u, v)
		if float32(want) != float32(got) {
			t.Fatalf("Latency(%d,%d): f32 oracle %v vs f64 oracle %v", u, v, got, want)
		}
	}
	// Row in float32 mode must be a fresh widened copy, not shared storage.
	src := hosts[0]
	row := o32.Row(src)
	row[0] = math.Inf(-1)
	if o32.Row(src)[0] == math.Inf(-1) {
		t.Fatal("float32 Row exposed shared storage")
	}
}

// TestOracleRowBudgetEviction: a bounded oracle never holds more than
// RowBudget rows, evicts FIFO, and recomputes evicted rows identically.
func TestOracleRowBudgetEviction(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 4
	ref := NewOracle(net)
	o := NewOracleWith(net, OracleOptions{RowBudget: budget})
	hosts := net.StubHosts[:12]
	for i, src := range hosts {
		o.Row(src)
		want := i + 1
		if want > budget {
			want = budget
		}
		if got := o.CachedRows(); got != want {
			t.Fatalf("after %d rows: CachedRows() = %d, want %d", i+1, got, want)
		}
	}
	// The oldest rows were evicted...
	for _, src := range hosts[:len(hosts)-budget] {
		if o.loaded(src) {
			t.Fatalf("row %d should have been evicted", src)
		}
	}
	// ...and recompute to exactly the same values.
	for _, src := range hosts {
		got, want := o.Row(src), ref.Row(src)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("recomputed row %d differs at %d: %v vs %v", src, v, got[v], want[v])
			}
		}
	}
	// Precompute respects the budget too.
	o2 := NewOracleWith(net, OracleOptions{RowBudget: budget})
	o2.Precompute(hosts)
	if got := o2.CachedRows(); got > budget {
		t.Fatalf("Precompute left %d cached rows, budget %d", got, budget)
	}
}

// TestOracleLatencyWarmsLowerIndex pins the symmetric-miss fix: a cold
// Latency(u,v) query computes exactly one row — the lower-indexed
// endpoint's — and the mirrored query reuses it instead of computing a
// second row.
func TestOracleLatencyWarmsLowerIndex(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	u, v := net.StubHosts[5], net.StubHosts[2]
	if u < v {
		u, v = v, u // ensure u > v
	}
	o := NewOracle(net)
	luv := o.Latency(u, v)
	if got := o.CachedRows(); got != 1 {
		t.Fatalf("cold Latency cached %d rows, want 1", got)
	}
	if !o.loaded(v) || o.loaded(u) {
		t.Fatalf("cold Latency should warm the lower endpoint %d, not %d", v, u)
	}
	lvu := o.Latency(v, u)
	if got := o.CachedRows(); got != 1 {
		t.Fatalf("mirrored Latency grew the cache to %d rows, want 1", got)
	}
	if luv != lvu {
		t.Fatalf("asymmetric latency: %v vs %v", luv, lvu)
	}
}

// TestOracleBoundedConcurrentAccess hammers a small-budget oracle from many
// goroutines (run under -race in CI). Every answer must match the reference
// oracle regardless of eviction interleaving.
func TestOracleBoundedConcurrentAccess(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewOracle(net)
	o := NewOracleWith(net, OracleOptions{RowBudget: 3})
	hosts := net.StubHosts[:10]
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w + 1))
			for i := 0; i < 200; i++ {
				u := hosts[r.Intn(len(hosts))]
				v := hosts[r.Intn(len(hosts))]
				if got, want := o.Latency(u, v), ref.Latency(u, v); got != want {
					select {
					case errCh <- fmt.Errorf("Latency(%d,%d) = %v, want %v", u, v, got, want):
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if got := o.CachedRows(); got > 3 {
		t.Fatalf("CachedRows() = %d after concurrent access, budget 3", got)
	}
}

// TestOracleBoundedEvictionChurn pins the ensure-return fix: with a budget
// of 1 every admission evicts the previous row, so a reader that re-loaded
// the atomic slot after ensure (instead of using the row ensure returned)
// would dereference a nil pointer almost immediately. Runs in both row
// representations; CI runs it under -race.
func TestOracleBoundedEvictionChurn(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, f32 := range []bool{false, true} {
		o := NewOracleWith(net, OracleOptions{RowBudget: 1, Float32: f32})
		hosts := net.StubHosts[:8]
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rng.New(uint64(w + 1))
				for i := 0; i < 300; i++ {
					u := hosts[r.Intn(len(hosts))]
					v := hosts[r.Intn(len(hosts))]
					_ = o.Latency(u, v)
					if i%16 == 0 {
						_ = o.Row(u)
					}
				}
			}(w)
		}
		wg.Wait()
		if got := o.CachedRows(); got > 1 {
			t.Fatalf("Float32=%v: CachedRows() = %d, budget 1", f32, got)
		}
	}
}

// BenchmarkOracleWarmupAllSources is the acceptance benchmark for the CSR
// oracle: warm every stub host's row on a fresh oracle (the all-sources
// warm-up every experiment trial performs in pickHosts).
func BenchmarkOracleWarmupAllSources(b *testing.B) {
	net, err := Generate(TSLarge(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	srcs := net.StubHosts[:256]
	net.Graph.Frozen() // freeze outside the timed loop, as Generate does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewOracle(net)
		o.Precompute(srcs)
	}
}

// BenchmarkOracleDijkstraAfterWarmup measures one full Dijkstra on the CSR
// kernel once the scratch pool is warm: a RowBudget-1 oracle evicts every
// previous row, so each Row call runs a fresh single-source computation —
// the steady state of a memory-bounded full-scale run.
func BenchmarkOracleDijkstraAfterWarmup(b *testing.B) {
	net, err := Generate(TSLarge(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	o := NewOracleWith(net, OracleOptions{RowBudget: 1})
	hosts := net.StubHosts
	o.Row(hosts[0]) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Row(hosts[i%len(hosts)])
	}
}

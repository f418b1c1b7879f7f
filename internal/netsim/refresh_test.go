package netsim

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// churnMutation removes a stub host's first access link and re-adds it with
// a different weight — the physical-graph footprint of one leave/rejoin.
func churnMutation(t *testing.T, net *Network, host int, bump float64) {
	t.Helper()
	nbrs := net.Graph.Neighbors(host)
	if len(nbrs) == 0 {
		t.Fatalf("host %d has no links", host)
	}
	w, _ := net.Graph.Weight(host, nbrs[0])
	if !net.Graph.RemoveEdge(host, nbrs[0]) {
		t.Fatalf("failed to remove edge {%d,%d}", host, nbrs[0])
	}
	net.Graph.MustAddEdge(host, nbrs[0], w+bump)
}

// TestRefreshMatchesFresh warms rows across every domain, applies a churn
// mutation, refreshes, and asserts every still-cached row and every point
// query is bit-identical to a from-scratch oracle.
func TestRefreshMatchesFresh(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(net)
	o.Precompute(net.StubHosts)
	before := o.CachedRows()

	churnMutation(t, net, net.StubHosts[0], 1.5)
	st := o.Refresh()
	if st.FullRebuild {
		t.Fatalf("single-mutation refresh fell back to full rebuild: %+v", st)
	}
	if st.NetAdded != 1 || st.NetRemoved != 1 || st.DirtyDomains != 1 {
		t.Fatalf("stats = %+v, want 1 net add, 1 net remove, 1 dirty domain", st)
	}
	if st.RowsDropped == 0 || st.RowsDropped >= before {
		t.Fatalf("dropped %d of %d rows; want some but not all", st.RowsDropped, before)
	}
	if o.CachedRows() != before-st.RowsDropped {
		t.Fatalf("CachedRows = %d, want %d", o.CachedRows(), before-st.RowsDropped)
	}

	fresh := net.Graph.Freeze()
	want := make([]float64, fresh.NumVertices())
	for _, src := range net.StubHosts {
		fresh.ShortestPathsInto(src, want)
		row := o.Row(src) // cached-and-repaired or recomputed on demand
		for i := range want {
			if row[i] != want[i] {
				t.Fatalf("row %d entry %d = %v, want %v (dropped domains %d)", src, i, row[i], want[i], st.DirtyDomains)
			}
		}
	}
}

// TestRefreshDirtyDomainPolicy asserts rows rooted in the mutated domain
// are dropped while rows in clean domains survive.
func TestRefreshDirtyDomainPolicy(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(net)
	o.Precompute(net.StubHosts)

	victim := net.StubHosts[0]
	churnMutation(t, net, victim, 2.0)
	dirty := net.Domain[victim]
	st := o.Refresh()
	if st.FullRebuild {
		t.Fatalf("unexpected full rebuild: %+v", st)
	}
	for _, src := range net.StubHosts {
		cached := o.loaded(src)
		if net.Domain[src] == dirty && cached {
			t.Fatalf("row %d in dirty domain %d survived", src, dirty)
		}
		if net.Domain[src] != dirty && !cached {
			t.Fatalf("row %d in clean domain %d was dropped", src, net.Domain[src])
		}
	}
}

// TestRefreshRepeated drives several refresh cycles (exercising the delta
// view chain and compaction) and checks consistency after each.
func TestRefreshRepeated(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(net)
	o.Precompute(net.StubHosts)
	r := rng.New(11)
	compacted := false
	for round := 0; round < 12; round++ {
		churnMutation(t, net, net.StubHosts[r.Intn(len(net.StubHosts))], float64(1+r.Intn(5)))
		st := o.Refresh()
		compacted = compacted || st.Compacted
		fresh := net.Graph.Freeze()
		want := make([]float64, fresh.NumVertices())
		for k := 0; k < 6; k++ {
			src := net.StubHosts[r.Intn(len(net.StubHosts))]
			fresh.ShortestPathsInto(src, want)
			row := o.Row(src)
			for i := range want {
				if row[i] != want[i] {
					t.Fatalf("round %d row %d entry %d = %v, want %v", round, src, i, row[i], want[i])
				}
			}
		}
	}
}

// f32RowTol is the acceptance band for repaired Float32 rows: a repaired
// value may differ from a from-scratch Float32 computation by a few ulps
// (~2⁻²³ relative), because the repair recomputes from rounded boundary
// distances. 1e-5 relative leaves room for drift across repeated refreshes
// while still catching any real repair bug (wrong distances differ by whole
// link weights, i.e. milliseconds).
const f32RowTol = 1e-5

// f32Close reports whether a repaired Float32 distance matches the
// reference within the relative tolerance band.
func f32Close(got, want float64) bool {
	if got == want {
		return true
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff <= f32RowTol*(got+want)
}

// TestRefreshFloat32Repair pins the Float32 repair path (ROADMAP item 5
// leftover): a churn batch must NOT trigger the historical full-rebuild
// fallback; clean-domain rows are repaired in place through float64
// scratch, and every surviving row matches a from-scratch Float32 oracle
// within a few ulps.
func TestRefreshFloat32Repair(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracleWith(net, OracleOptions{Float32: true})
	var rebuilds obs.Counter
	o.SetRefreshInstruments(&rebuilds)
	o.Precompute(net.StubHosts)
	before := o.CachedRows()

	churnMutation(t, net, net.StubHosts[0], 1.5)
	st := o.Refresh()
	if st.FullRebuild {
		t.Fatalf("Float32 churn refresh fell back to full rebuild: %+v", st)
	}
	if st.RowsRepaired == 0 {
		t.Fatalf("no rows repaired in place: %+v", st)
	}
	if st.RowsDropped == 0 || st.RowsDropped >= before {
		t.Fatalf("dropped %d of %d rows; want the dirty domain but not all", st.RowsDropped, before)
	}
	if rebuilds.Value() != 0 {
		t.Fatalf("refresh instrument = %d rebuilds, want 0", rebuilds.Value())
	}

	fresh := net.Graph.Freeze()
	want32 := make([]float32, fresh.NumVertices())
	for _, src := range net.StubHosts {
		fresh.ShortestPathsF32Into(src, want32)
		row := o.Row(src) // repaired in place or recomputed on demand
		for i := range want32 {
			if !f32Close(row[i], float64(want32[i])) {
				t.Fatalf("row %d entry %d = %v, want %v (±%g rel)", src, i, row[i], want32[i], f32RowTol)
			}
		}
	}
}

// TestRefreshFloat32Repeated drives several churn/refresh cycles in Float32
// mode; the rounding error must stay inside the tolerance band instead of
// compounding.
func TestRefreshFloat32Repeated(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracleWith(net, OracleOptions{Float32: true})
	o.Precompute(net.StubHosts)
	r := rng.New(11)
	repaired := 0
	for round := 0; round < 12; round++ {
		churnMutation(t, net, net.StubHosts[r.Intn(len(net.StubHosts))], float64(1+r.Intn(5)))
		st := o.Refresh()
		if st.FullRebuild {
			t.Fatalf("round %d fell back to full rebuild: %+v", round, st)
		}
		repaired += st.RowsRepaired
		fresh := net.Graph.Freeze()
		want32 := make([]float32, fresh.NumVertices())
		for k := 0; k < 6; k++ {
			src := net.StubHosts[r.Intn(len(net.StubHosts))]
			fresh.ShortestPathsF32Into(src, want32)
			row := o.Row(src)
			for i := range want32 {
				if !f32Close(row[i], float64(want32[i])) {
					t.Fatalf("round %d row %d entry %d = %v, want %v", round, src, i, row[i], want32[i])
				}
			}
		}
	}
	if repaired == 0 {
		t.Fatal("12 churn rounds never repaired a Float32 row in place")
	}
}

// TestRefreshFullRebuildPaths covers the remaining fallback cases: vertex
// growth (here) and journal overflow force a rebuild that still answers
// correctly; Float32 rows no longer do (TestRefreshFloat32Repair).
func TestRefreshFullRebuildPaths(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	o2 := NewOracle(net)
	var rebuilds2 obs.Counter
	o2.SetRefreshInstruments(&rebuilds2)
	o2.Precompute(net.StubHosts[:4])
	v := net.Graph.AddVertex()
	net.Graph.MustAddEdge(v, net.StubHosts[0], 3)
	// Network metadata (Domain, Tiers) is not extended here; growth must be
	// absorbed before any domain logic runs.
	if st := o2.Refresh(); !st.FullRebuild || st.Reason != RefreshFallbackVertexGrowth {
		t.Fatalf("vertex growth must rebuild with reason %q, got %+v", RefreshFallbackVertexGrowth, st)
	}
	if rebuilds2.Value() != 1 {
		t.Fatalf("refresh instrument = %d rebuilds, want 1", rebuilds2.Value())
	}
	if got := o2.NumNodes(); got != net.Graph.NumVertices() {
		t.Fatalf("post-growth NumNodes = %d, want %d", got, net.Graph.NumVertices())
	}
}

// TestRefreshBoundedMode checks the FIFO ring survives a refresh: survivors
// keep admission order, dropped rows free budget, eviction still works.
func TestRefreshBoundedMode(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracleWith(net, OracleOptions{RowBudget: 8})
	o.Precompute(net.StubHosts[:8])
	churnMutation(t, net, net.StubHosts[0], 1.0)
	st := o.Refresh()
	if st.FullRebuild {
		t.Fatalf("unexpected rebuild: %+v", st)
	}
	if got := o.CachedRows(); got != 8-st.RowsDropped {
		t.Fatalf("CachedRows = %d, want %d", got, 8-st.RowsDropped)
	}
	// Fill the ring back up and push it over budget; it must evict cleanly
	// and stay exact.
	fresh := net.Graph.Freeze()
	for _, src := range net.StubHosts[:12] {
		row := o.Row(src)
		want := make([]float64, fresh.NumVertices())
		fresh.ShortestPathsInto(src, want)
		for i := range want {
			if row[i] != want[i] {
				t.Fatalf("row %d entry %d = %v, want %v", src, i, row[i], want[i])
			}
		}
	}
	if got := o.CachedRows(); got != 8 {
		t.Fatalf("CachedRows after overfill = %d, want 8", got)
	}
}

// TestRefreshNoopBatch: mutations that cancel advance the version without
// touching rows.
func TestRefreshNoopBatch(t *testing.T) {
	net, err := Generate(TSSmall(), rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(net)
	o.Precompute(net.StubHosts[:6])
	host := net.StubHosts[0]
	nb := net.Graph.Neighbors(host)[0]
	w, _ := net.Graph.Weight(host, nb)
	net.Graph.RemoveEdge(host, nb)
	net.Graph.MustAddEdge(host, nb, w)
	st := o.Refresh()
	if st.FullRebuild || st.NetAdded != 0 || st.NetRemoved != 0 {
		t.Fatalf("cancelled batch stats = %+v", st)
	}
	if got := o.CachedRows(); got != 6 {
		t.Fatalf("CachedRows = %d, want 6", got)
	}
	if st2 := o.Refresh(); st2.Mutations != 0 {
		t.Fatalf("second refresh saw %d mutations", st2.Mutations)
	}
}

// graph.CSRView conformance of both oracle view types, pinned at compile
// time.
var (
	_ graph.CSRView = (*graph.Frozen)(nil)
	_ graph.CSRView = (*graph.DeltaView)(nil)
)

// benchChurnSetup builds the ts-large network plus 256 warm sources spread
// across all stub domains — the shape of every experiment trial's warm-up.
func benchChurnSetup(b *testing.B) (*Network, []int) {
	b.Helper()
	net, err := Generate(TSLarge(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]int, 256)
	for i := range srcs {
		srcs[i] = net.StubHosts[i*len(net.StubHosts)/len(srcs)]
	}
	return net, srcs
}

// benchChurnMutate rewires one random stub host's first access link — the
// single churn mutation of the PR-7 acceptance benchmark.
func benchChurnMutate(net *Network, r *rng.Rand) {
	host := net.StubHosts[r.Intn(len(net.StubHosts))]
	nb := net.Graph.Neighbors(host)[0]
	w, _ := net.Graph.Weight(host, nb)
	net.Graph.RemoveEdge(host, nb)
	net.Graph.MustAddEdge(host, nb, w+1)
}

// BenchmarkOracleChurnRefresh measures restoring a 256-row warm oracle
// after a single churn mutation via Refresh: repair clean-domain rows in
// place, recompute only the dropped dirty-domain rows.
func BenchmarkOracleChurnRefresh(b *testing.B) {
	net, srcs := benchChurnSetup(b)
	o := NewOracle(net)
	o.Precompute(srcs)
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchChurnMutate(net, r)
		o.Refresh()
		o.Precompute(srcs)
	}
}

// BenchmarkOracleChurnRebuild is the pre-PR7 behavior: the same mutation
// invalidates everything, so the oracle is rebuilt and re-warmed from
// scratch.
func BenchmarkOracleChurnRebuild(b *testing.B) {
	net, srcs := benchChurnSetup(b)
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchChurnMutate(net, r)
		o := NewOracle(net)
		o.Precompute(srcs)
	}
}

// BenchmarkOracleChurnRefreshF32 pins the Float32 repair path (the PR-9
// bugfix): one churn mutation against a 256-row warm Float32 oracle must
// cost repair + dirty-row recompute, not the full rebuild the historical
// RefreshFallbackFloat32 fallback paid. Compare against
// BenchmarkOracleChurnRebuildF32.
func BenchmarkOracleChurnRefreshF32(b *testing.B) {
	net, srcs := benchChurnSetup(b)
	o := NewOracleWith(net, OracleOptions{Float32: true})
	o.Precompute(srcs)
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchChurnMutate(net, r)
		o.Refresh()
		o.Precompute(srcs)
	}
}

// BenchmarkOracleChurnRebuildF32 is what every Float32 refresh used to
// cost: a from-scratch oracle plus a full re-warm after each mutation.
func BenchmarkOracleChurnRebuildF32(b *testing.B) {
	net, srcs := benchChurnSetup(b)
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchChurnMutate(net, r)
		o := NewOracleWith(net, OracleOptions{Float32: true})
		o.Precompute(srcs)
	}
}

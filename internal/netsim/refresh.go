package netsim

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// This file is the dynamic-graph side of the oracle (DESIGN.md §11): after
// the physical topology mutates (churn joins/leaves/crashes rewiring access
// links), Refresh absorbs the mutation batch instead of throwing the whole
// CSR and row cache away. Sources in dirty transit domains — domains that
// own a touched edge endpoint — drop their cached rows (most of their
// shortest-path tree changed); sources elsewhere keep their rows and repair
// them in place with graph.RepairRow, whose affected region is typically a
// handful of vertices. The CSR itself advances by a graph.DeltaView patch,
// folded back into a flat snapshot (partial refreeze) once enough rows are
// patched.

// RefreshStats reports what one Oracle.Refresh did, for tests, benchmarks
// and the obs layer.
type RefreshStats struct {
	// Mutations is the journal batch length absorbed by this refresh.
	Mutations int
	// NetAdded and NetRemoved count the batch's net edge changes.
	NetAdded, NetRemoved int
	// DirtyDomains counts transit domains owning a touched edge endpoint.
	DirtyDomains int
	// RowsKept counts cached rows untouched by the batch (repair found an
	// empty affected set), RowsRepaired rows fixed in place, RowsDropped
	// rows invalidated (dirty domain, or repair region too large).
	RowsKept, RowsRepaired, RowsDropped int
	// FullRebuild is set when the refresh fell back to freeze-from-scratch
	// plus a cold cache: journal overflow, vertex growth, or a majority of
	// domains dirty. Reason says which.
	FullRebuild bool
	// Reason identifies the fallback trigger when FullRebuild is set, and is
	// RefreshFallbackNone otherwise.
	Reason RefreshFallbackReason
	// Compacted is set when the delta view was folded into a flat CSR.
	Compacted bool
}

// RefreshFallbackReason identifies why a Refresh abandoned the incremental
// repair path and rebuilt from scratch. Large-n runs should watch these
// (via Oracle.SetRefreshInstruments or RefreshStats.Reason): a refresh that
// silently degrades to rebuilds loses the incremental win without any other
// symptom (DESIGN.md §11).
type RefreshFallbackReason string

const (
	// RefreshFallbackNone marks a refresh that stayed on the incremental
	// path (FullRebuild unset).
	RefreshFallbackNone RefreshFallbackReason = ""
	// RefreshFallbackJournal: the mutation batch overflowed the journal
	// (more than oracleJournalCap mutations since the last refresh).
	RefreshFallbackJournal RefreshFallbackReason = "journal-overflow"
	// RefreshFallbackVertexGrowth: the graph gained vertices, which the
	// patched CSR view cannot represent.
	RefreshFallbackVertexGrowth RefreshFallbackReason = "vertex-growth"
	// RefreshFallbackMajorityDirty: more than half the transit domains own a
	// touched edge, so repairing rows costs more than recomputing them.
	RefreshFallbackMajorityDirty RefreshFallbackReason = "majority-dirty"
	// RefreshFallbackDeltaMiss: the delta-view chain from the last anchor
	// could not be reconstructed (anchor version no longer in the journal).
	RefreshFallbackDeltaMiss RefreshFallbackReason = "delta-miss"
)

// refreshCompactDenom sets the compaction threshold: when more than
// 1/refreshCompactDenom of the rows are patched, Refresh folds the delta
// view back into a flat CSR.
const refreshCompactDenom = 4

// Refresh brings the oracle up to date with mutations applied to the
// network's physical graph since the last refresh (or construction),
// keeping as much of the row cache as the mutation batch allows. It must
// be called from a quiescent point: no concurrent Latency/Row/Precompute
// calls may be in flight, because surviving rows are repaired in place.
//
// The fast path costs O(batch + cached-rows · repair-region) instead of the
// full O(n·Dijkstra + freeze) rebuild (BenchmarkOracleChurnRefresh against
// BenchmarkOracleChurnRebuild measures the ratio). Float32 rows take the same path through a float64 scratch row:
// widen, repair with graph.RepairRowF32 (tolerance-band parent tests absorb
// the rounding), re-round with the same single cast the cold computation
// uses — so repaired rows stay within a few float32 ulps of a from-scratch
// oracle. Falls back to a full rebuild when the journal overflowed, when
// the graph grew vertices, or when more than half the transit domains are
// dirty; the returned stats carry the RefreshFallbackReason, and
// SetRefreshInstruments exposes the same signal as an obs counter for long
// runs.
func (o *Oracle) Refresh() RefreshStats {
	g := o.net.Graph
	muts, ok := g.MutationsSince(o.ver)
	if ok && len(muts) == 0 {
		return RefreshStats{}
	}
	st := RefreshStats{Mutations: len(muts)}
	switch {
	case !ok:
		o.fullRebuild(&st, RefreshFallbackJournal)
		return st
	case g.NumVertices() != o.fz.NumVertices():
		o.fullRebuild(&st, RefreshFallbackVertexGrowth)
		return st
	}
	added, removed := graph.NetDiff(muts)
	st.NetAdded, st.NetRemoved = len(added), len(removed)
	if len(added) == 0 && len(removed) == 0 {
		// No-op batch (mutations cancelled out); just advance the version.
		o.ver = g.Version()
		return st
	}

	// Dirty domains: every transit domain owning an endpoint of a changed
	// edge. Rows rooted there lose most of their shortest-path tree, so
	// repairing them is not worth it — they are dropped and recomputed
	// lazily. PartitionByDomain then gives the per-node membership test.
	dirtySet := map[int]bool{}
	for _, e := range added {
		dirtySet[o.net.Domain[e.U]] = true
		dirtySet[o.net.Domain[e.V]] = true
	}
	for _, e := range removed {
		dirtySet[o.net.Domain[e.U]] = true
		dirtySet[o.net.Domain[e.V]] = true
	}
	st.DirtyDomains = len(dirtySet)
	if 2*len(dirtySet) > o.net.Config.TransitDomains {
		o.fullRebuild(&st, RefreshFallbackMajorityDirty)
		return st
	}
	domains := make([]int, 0, len(dirtySet))
	for d := range dirtySet {
		domains = append(domains, d)
	}
	dirtyNode := o.net.PartitionByDomain(domains...)

	// Advance the CSR view by a patch over the current base, compacting
	// into a flat snapshot when the patch covers a quarter of the rows.
	dv, ok := graph.DeltaFrom(g, o.base, o.baseVer)
	if !ok {
		o.fullRebuild(&st, RefreshFallbackDeltaMiss)
		return st
	}
	if dv.PatchedRows()*refreshCompactDenom > dv.NumVertices() {
		o.base = dv.Compact()
		o.baseVer = g.Version()
		o.fz = o.base
		st.Compacted = true
	} else {
		o.fz = dv
	}

	// Walk the cached rows: dirty-domain sources drop, the rest repair in
	// place (bailing to a drop when the affected region explodes). Float32
	// rows repair through one reused float64 scratch row — widen, repair
	// with the tolerance-band kernel, re-round in place with the same plain
	// cast the cold computation uses.
	patch := graph.NewCSRPatch(added, removed)
	n := o.fz.NumVertices()
	maxAffected := n / 4
	dropped := make([]bool, n)
	var scratch []float64
	for src := 0; src < n; src++ {
		r64, r32 := o.load(src)
		if r64 == nil && r32 == nil {
			continue
		}
		if dirtyNode[src] {
			o.dropRow(src)
			dropped[src] = true
			st.RowsDropped++
			continue
		}
		var affected int
		if o.opt.Float32 {
			if scratch == nil {
				scratch = make([]float64, n)
			}
			for i, d := range *r32 {
				scratch[i] = float64(d)
			}
			affected, ok = graph.RepairRowF32(o.fz, patch, src, scratch, maxAffected)
			if ok && affected > 0 {
				for i, d := range scratch {
					(*r32)[i] = float32(d)
				}
			}
		} else {
			affected, ok = graph.RepairRow(o.fz, patch, src, *r64, maxAffected)
		}
		switch {
		case !ok:
			o.dropRow(src)
			dropped[src] = true
			st.RowsDropped++
		case affected > 0:
			st.RowsRepaired++
		default:
			st.RowsKept++
		}
	}

	// Unbounded mode: dropped rows need a fresh sync.Once so the next query
	// recomputes them. The slice is replaced wholesale (a sync.Once cannot
	// be reset in place); surviving rows short-circuit on their atomic slot
	// before ever touching the new Once.
	if o.opt.RowBudget == 0 {
		o.once = make([]sync.Once, n)
	} else {
		// Bounded mode: rebuild the FIFO ring in admission order, keeping
		// only the survivors.
		fifo := make([]int32, o.opt.RowBudget)
		live := 0
		for i := 0; i < o.live; i++ {
			src := o.fifo[(o.head+i)%len(o.fifo)]
			if !dropped[src] {
				fifo[live] = src
				live++
			}
		}
		o.fifo, o.head, o.live = fifo, 0, live
	}
	o.ver = g.Version()
	return st
}

// dropRow invalidates src's cached row in the mode's representation.
func (o *Oracle) dropRow(src int) {
	if o.opt.Float32 {
		o.rows32[src].Store(nil)
	} else {
		o.rows[src].Store(nil)
	}
	o.cached.Add(-1)
}

// fullRebuild is the pre-delta behavior: freeze the graph from scratch and
// start with a cold cache. It stamps the stats with why the incremental
// path was abandoned and bumps the refresh fallback counter when
// instrumented.
func (o *Oracle) fullRebuild(st *RefreshStats, why RefreshFallbackReason) {
	g := o.net.Graph
	st.FullRebuild = true
	st.Reason = why
	st.RowsDropped = int(o.cached.Load())
	if o.instr != nil {
		o.instr.refreshRebuilds.Add(1)
	}
	o.base = g.Freeze()
	o.fz = o.base
	o.baseVer = g.Version()
	o.ver = g.Version()
	n := g.NumVertices()
	if o.opt.Float32 {
		o.rows32 = make([]atomic.Pointer[[]float32], n)
	} else {
		o.rows = make([]atomic.Pointer[[]float64], n)
	}
	o.cached.Store(0)
	if o.opt.RowBudget == 0 {
		o.once = make([]sync.Once, n)
	} else {
		o.fifo = make([]int32, o.opt.RowBudget)
		o.head, o.live = 0, 0
	}
	// Re-anchor the journal so the next refresh window starts here even if
	// the journal had overflowed.
	g.TrackMutations(oracleJournalCap)
}

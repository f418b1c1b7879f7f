package metrics

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/overlay"
)

// This file maintains the paper's eq. (3) AverageLatency incrementally
// (DESIGN.md §11). The exact metric refloods every live slot — O(n·Dijkstra)
// per evaluation — which dominates experiment time once AL is sampled after
// every exchange. ALTracker instead keeps all n arrival rows resident and,
// after each batch of topology mutations, repairs only the rows' affected
// regions (overlay.RepairFloodRow), folding per-row sum deltas into a
// running total. The arrival rows themselves stay bit-exact; only the
// aggregated sums can drift by floating-point reassociation, which the
// tracker bounds conservatively and discharges with a full reflood when the
// bound crosses the configured budget.

// alTrackerUlp is the double-precision unit roundoff (2^-52), the per-step
// factor of the conservative drift bound: folding a delta of magnitude a
// into a sum of magnitude s mis-rounds by at most ulp·(|s|+a).
const alTrackerUlp = 2.220446049250313e-16

// alTrackerMaxAffectedDenom bounds per-row repair: when the affected set
// exceeds n/alTrackerMaxAffectedDenom slots, repairing is no cheaper than
// reflooding, so the row is reflooded instead.
const alTrackerMaxAffectedDenom = 2

// alTrackerJournalCap is the default logical-graph journal capacity; a
// batch longer than this (between two Update calls) forces a full reflood.
const alTrackerJournalCap = 8192

// ALTrackerOptions configures an ALTracker.
type ALTrackerOptions struct {
	// DriftBudget is the largest conservative drift bound, in milliseconds
	// on the AL value, tolerated before Update discharges with a full
	// reflood. Zero selects the default (1e-6 ms); a negative budget forces
	// a full reflood on every Update — the always-exact reference mode the
	// property tests pin the incremental path against.
	DriftBudget float64
	// JournalCap overrides the logical-graph mutation journal capacity
	// (default 8192). A mutation batch longer than the capacity cannot be
	// diffed and forces a full reflood.
	JournalCap int
}

// ALUpdateStats reports what one ALTracker.Update did.
type ALUpdateStats struct {
	// Events is the number of slot lifecycle events absorbed; Mutations the
	// logical-graph journal batch length.
	Events, Mutations int
	// RemovedLinks and AddedLinks count the batch's net flood-visible link
	// changes (including the implicit removals of a crashed slot's stale
	// links).
	RemovedLinks, AddedLinks int
	// RowsClean counts surviving rows the repair proved untouched,
	// RowsRepaired rows patched in place, RowsReflooded rows reflooded
	// because their affected region was too large.
	RowsClean, RowsRepaired, RowsReflooded int
	// BornRows and DeadRows count rows created for joined slots and retired
	// for dead slots.
	BornRows, DeadRows int
	// FullReflood is set when the whole tracker was rebuilt by reflooding
	// every row; Reason says why ("swap", "journal", "forced", "drift").
	FullReflood bool
	// Reason is the full-reflood trigger, empty on the incremental path.
	Reason string
	// Drift is the conservative accumulated drift bound on the AL value, in
	// milliseconds, after this update.
	Drift float64
}

// ALTracker maintains AverageLatency (exact mode, nil sample) as a
// delta-updated aggregate over a mutating overlay. It observes topology
// changes through two feeds it claims at construction: the overlay's slot
// event hook (SetSlotEventHook) and the logical graph's mutation journal
// (graph.TrackMutations) — the tracker must therefore be the only consumer
// of both on this overlay. All methods, and every overlay mutation, must
// run on the same goroutine (or be otherwise serialized): Update repairs
// rows in place at a quiescent point, fanning the per-row work out across
// GOMAXPROCS workers internally.
//
// PROP-G host swaps change every latency term at once, so any SlotSwap in a
// batch degrades Update to a full reflood; PROP-O rewires and churn stay on
// the incremental path.
type ALTracker struct {
	o    *overlay.Overlay
	proc overlay.ProcDelayFunc
	opt  ALTrackerOptions

	rows      [][]float64 // per-slot arrival row, nil for dead slots
	rowSum    []float64   // finite-entry sum of rows[src]
	rowFinite []int       // finite-entry count of rows[src]
	total     float64     // Σ rowSum over live rows
	finite    int         // Σ rowFinite over live rows
	drift     float64     // conservative drift bound on total, in ms·n²

	ver    uint64 // logical-graph version consumed so far
	events []overlay.SlotEvent
}

// NewALTracker builds a tracker over o and pays one full reflood to seed
// the rows. It installs the overlay's slot event hook and enables mutation
// journaling on o.Logical; call Detach to release both.
func NewALTracker(o *overlay.Overlay, proc overlay.ProcDelayFunc, opt ALTrackerOptions) (*ALTracker, error) {
	if o.NumAlive() == 0 {
		return nil, fmt.Errorf("metrics: ALTracker over empty overlay")
	}
	if opt.DriftBudget == 0 {
		opt.DriftBudget = 1e-6
	}
	if opt.JournalCap <= 0 {
		opt.JournalCap = alTrackerJournalCap
	}
	t := &ALTracker{o: o, proc: proc, opt: opt}
	o.SetSlotEventHook(func(e overlay.SlotEvent) { t.events = append(t.events, e) })
	o.Logical.TrackMutations(opt.JournalCap)
	t.refloodAll()
	return t, nil
}

// Detach removes the tracker's slot event hook and disables journaling,
// leaving the overlay as found. The tracker must not be used afterwards.
func (t *ALTracker) Detach() {
	t.o.SetSlotEventHook(nil)
	t.o.Logical.TrackMutations(0)
}

// Value returns the current AverageLatency: total arrival mass over n²
// ordered live pairs (self-pairs contribute zero, unreachable pairs are
// excluded from the mass — match UnreachablePairs against zero when exact
// comparability matters).
func (t *ALTracker) Value() float64 {
	a := t.o.NumAlive()
	if a == 0 {
		return 0
	}
	return t.total / float64(a*a)
}

// Drift returns the conservative accumulated drift bound on Value, in
// milliseconds. The arrival rows are bit-exact at all times; only the sum
// aggregation can drift, by at most this bound, before the next discharge.
func (t *ALTracker) Drift() float64 {
	a := t.o.NumAlive()
	if a == 0 {
		return 0
	}
	return t.drift / float64(a*a)
}

// UnreachablePairs returns the number of ordered live pairs with no flood
// path (such pairs contribute nothing to Value, where the exact
// AverageLatency refuses to evaluate).
func (t *ALTracker) UnreachablePairs() int {
	a := t.o.NumAlive()
	return a*a - t.finite
}

// Update absorbs every overlay mutation since the previous Update (or
// construction) and brings Value back in sync. Typical cost per PROP-O
// exchange is O(rows·patch + affected·Dijkstra-region); altracker_bench_test.go
// measures the ratio against exact reflooding.
func (t *ALTracker) Update() ALUpdateStats {
	evs := t.events
	t.events = nil
	st := ALUpdateStats{Events: len(evs)}

	muts, ok := t.o.Logical.MutationsSince(t.ver)
	st.Mutations = len(muts)
	if len(evs) == 0 && ok && len(muts) == 0 {
		st.Drift = t.Drift()
		return st
	}
	if t.opt.DriftBudget < 0 {
		return t.fullReflood(st, "forced")
	}
	if !ok {
		return t.fullReflood(st, "journal")
	}
	for _, e := range evs {
		if e.Kind == overlay.SlotSwap {
			return t.fullReflood(st, "swap")
		}
	}

	// Classify the batch's lifecycle events. A slot both born and dead in
	// the same batch never contributes a row or a flood-visible link.
	died := map[int]int{}  // slot -> released host
	born := map[int]bool{} // slot -> joined this batch
	var crashedNow, diedOrder, bornOrder []int
	for _, e := range evs {
		switch e.Kind {
		case overlay.SlotJoin:
			born[e.U] = true
			bornOrder = append(bornOrder, e.U)
		case overlay.SlotLeave, overlay.SlotCrash:
			if _, dup := died[e.U]; !dup {
				diedOrder = append(diedOrder, e.U)
			}
			died[e.U] = e.HostU
			if e.Kind == overlay.SlotCrash {
				crashedNow = append(crashedNow, e.U)
			}
		}
	}
	deadBefore := func(x int) bool {
		_, d := died[x]
		return !t.o.Alive(x) && !d
	}
	hostAt := func(x int) int {
		if h, d := died[x]; d {
			return h
		}
		return t.o.HostOf(x)
	}

	// Net link diff: journal mutations plus the implicit removals of
	// crashed slots' stale links (present in the logical graph, invisible
	// to floods). Links already dead before the batch, or dead at both
	// ends after it, never influence any flood and are skipped — exactly
	// the RepairFloodRow patch contract.
	added, removed := graph.NetDiff(muts)
	addedSet := map[int64]bool{}
	for _, e := range added {
		addedSet[alPairKey(e.U, e.V)] = true
	}
	var rem, add []overlay.FloodEdge
	for _, e := range removed {
		u, v := e.U, e.V
		if deadBefore(u) || deadBefore(v) {
			continue
		}
		if !t.o.Alive(u) && !t.o.Alive(v) {
			continue
		}
		rem = append(rem, overlay.FloodEdge{U: u, V: v, HostU: hostAt(u), HostV: hostAt(v)})
	}
	for _, e := range added {
		u, v := e.U, e.V
		if !t.o.Alive(u) || !t.o.Alive(v) {
			continue
		}
		add = append(add, overlay.FloodEdge{U: u, V: v, HostU: t.o.HostOf(u), HostV: t.o.HostOf(v)})
	}
	for _, x := range crashedNow {
		for _, nb := range t.o.Neighbors(x) {
			if addedSet[alPairKey(x, nb)] || deadBefore(nb) || !t.o.Alive(nb) {
				continue
			}
			rem = append(rem, overlay.FloodEdge{U: x, V: nb, HostU: died[x], HostV: t.o.HostOf(nb)})
		}
	}
	st.RemovedLinks, st.AddedLinks = len(rem), len(add)

	// Grow the per-slot state to the post-batch slot count; new entries of
	// surviving rows start at +Inf (no mass contribution).
	n := t.o.NumSlots()
	inf := math.Inf(1)
	for len(t.rows) < n {
		t.rows = append(t.rows, nil)
		t.rowSum = append(t.rowSum, 0)
		t.rowFinite = append(t.rowFinite, 0)
	}
	for src, row := range t.rows {
		if row == nil {
			continue // dead (or not-yet-seeded) slots have no row to extend
		}
		for len(row) < n {
			row = append(row, inf)
		}
		t.rows[src] = row
	}

	// Retire rows of dead sources.
	for _, d := range diedOrder {
		if t.rows[d] == nil {
			continue
		}
		t.total -= t.rowSum[d]
		t.drift += alTrackerUlp * (math.Abs(t.total) + math.Abs(t.rowSum[d]))
		t.finite -= t.rowFinite[d]
		t.rows[d], t.rowSum[d], t.rowFinite[d] = nil, 0, 0
		st.DeadRows++
	}

	// Repair every surviving row in parallel, then fold the per-row deltas
	// sequentially in ascending slot order so the aggregate is
	// deterministic. Rows whose affected region is too large are reflooded
	// instead, with the reflood expressed as one big delta.
	if len(rem) > 0 || len(add) > 0 || len(diedOrder) > 0 {
		patch := overlay.NewFloodPatch(rem, add)
		type rowDelta struct {
			sum, abs float64
			finite   int
			kind     uint8 // 0 clean, 1 repaired, 2 reflooded
		}
		deltas := make([]rowDelta, n)
		maxAffected := n / alTrackerMaxAffectedDenom
		workers := runtime.GOMAXPROCS(0)
		ch := make(chan int, n)
		for src := 0; src < n; src++ {
			if t.rows[src] != nil {
				ch <- src
			}
		}
		close(ch)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for src := range ch {
					row := t.rows[src]
					rst, ok := t.o.RepairFloodRow(patch, t.proc, src, row, maxAffected)
					d := &deltas[src]
					if !ok {
						t.o.FloodLatenciesInto(src, t.proc, row)
						sum, fin := alFiniteSum(row)
						d.sum = sum - t.rowSum[src]
						d.abs = math.Abs(sum) + math.Abs(t.rowSum[src])
						d.finite = fin - t.rowFinite[src]
						d.kind = 2
						continue
					}
					// Sweep stale entries of slots that died without a
					// flood-visible link of their own (see RepairFloodRow).
					for _, dd := range diedOrder {
						if row[dd] < inf {
							rst.SumDelta -= row[dd]
							rst.AbsDelta += row[dd]
							rst.FiniteDelta--
							row[dd] = inf
						}
					}
					d.sum, d.abs, d.finite = rst.SumDelta, rst.AbsDelta, rst.FiniteDelta
					if rst.Affected > 0 || rst.SumDelta != 0 || rst.FiniteDelta != 0 {
						d.kind = 1
					}
				}
			}()
		}
		wg.Wait()
		for src := 0; src < n; src++ {
			if t.rows[src] == nil {
				continue
			}
			d := deltas[src]
			switch d.kind {
			case 0:
				st.RowsClean++
				continue
			case 1:
				st.RowsRepaired++
			case 2:
				st.RowsReflooded++
			}
			t.rowSum[src] += d.sum
			t.rowFinite[src] += d.finite
			t.total += d.sum
			t.finite += d.finite
			t.drift += alTrackerUlp * (math.Abs(t.rowSum[src]) + math.Abs(t.total) + 2*d.abs)
		}
	}

	// Seed rows for slots born this batch (after all link changes, so one
	// fresh flood per newcomer is exact).
	for _, b := range bornOrder {
		if !t.o.Alive(b) || t.rows[b] != nil {
			continue
		}
		row := t.o.FloodLatenciesInto(b, t.proc, make([]float64, n))
		sum, fin := alFiniteSum(row)
		t.rows[b], t.rowSum[b], t.rowFinite[b] = row, sum, fin
		t.total += sum
		t.finite += fin
		t.drift += alTrackerUlp * (math.Abs(t.total) + math.Abs(sum))
		st.BornRows++
	}

	t.ver = t.o.Logical.Version()
	if t.Drift() > t.opt.DriftBudget {
		return t.fullReflood(st, "drift")
	}
	st.Drift = t.Drift()
	return st
}

// fullReflood rebuilds every row from scratch and resets the drift bound.
func (t *ALTracker) fullReflood(st ALUpdateStats, reason string) ALUpdateStats {
	st.FullReflood = true
	st.Reason = reason
	t.refloodAll()
	st.Drift = 0
	return st
}

// refloodAll floods every live slot (in parallel) and rebuilds the sums by
// a deterministic sequential reduction — the same summation order as the
// exact AverageLatency, so a freshly discharged tracker agrees with it
// bit-for-bit on connected overlays.
func (t *ALTracker) refloodAll() {
	n := t.o.NumSlots()
	t.rows = make([][]float64, n)
	t.rowSum = make([]float64, n)
	t.rowFinite = make([]int, n)
	alive := t.o.AliveSlots()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(alive) {
		workers = len(alive)
	}
	ch := make(chan int, len(alive))
	for _, src := range alive {
		ch <- src
	}
	close(ch)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for src := range ch {
				row := t.o.FloodLatenciesInto(src, t.proc, make([]float64, n))
				sum, fin := alFiniteSum(row)
				t.rows[src] = row
				t.rowSum[src] = sum
				t.rowFinite[src] = fin
			}
		}()
	}
	wg.Wait()
	t.total, t.finite = 0, 0
	for src := 0; src < n; src++ {
		if t.rows[src] != nil {
			t.total += t.rowSum[src]
			t.finite += t.rowFinite[src]
		}
	}
	t.drift = 0
	t.ver = t.o.Logical.Version()
	t.events = nil
}

// alFiniteSum sums a row's finite entries in index order and counts them.
func alFiniteSum(row []float64) (sum float64, finite int) {
	for _, v := range row {
		if !math.IsInf(v, 1) {
			sum += v
			finite++
		}
	}
	return sum, finite
}

// alPairKey canonicalizes an unordered slot pair into one map key.
func alPairKey(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

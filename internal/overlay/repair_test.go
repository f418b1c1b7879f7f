package overlay

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// hashLat is a deterministic pseudo-random symmetric latency for repair
// tests: positive, irregular (so float ties are rare but sums are exact
// enough for the bit-equality assertions), and a pure function of the host
// pair.
func hashLat(a, b int) float64 { return 1 + float64(pairHash(a, b)%4096)/64 }

// pairHash mixes an unordered host pair into 64 bits.
func pairHash(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	x := uint64(a)*2654435761 + uint64(b)*40503
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return x
}

// testProc is a nonzero per-slot processing delay exercising the proc term
// of the flood arithmetic.
func testProc(slot int) float64 { return float64(slot%3) * 0.25 }

// randomFloodOverlay builds an n-slot overlay on distinct hosts with a ring
// plus extra random chords — connected, average degree ~2+2·extra/n.
func randomFloodOverlay(t *testing.T, r *rng.Rand, n, extra int) *Overlay {
	t.Helper()
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = 3*i + 1
	}
	o, err := New(hosts, hashLat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := o.AddEdge(i, (i+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !o.Logical.HasEdge(u, v) {
			if err := o.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return o
}

// floodRows snapshots the full arrival row of every live slot.
func floodRows(o *Overlay, proc ProcDelayFunc) map[int][]float64 {
	rows := make(map[int][]float64)
	for _, src := range o.AliveSlots() {
		rows[src] = o.FloodLatenciesInto(src, proc, make([]float64, o.NumSlots()))
	}
	return rows
}

// finiteSum returns the sum and count of a row's finite entries.
func finiteSum(row []float64) (sum float64, finite int) {
	for _, v := range row {
		if !math.IsInf(v, 1) {
			sum += v
			finite++
		}
	}
	return sum, finite
}

// checkRepairedRows repairs every snapshot row whose source is still alive
// and asserts bit-equality with a fresh flood plus consistency of the
// reported aggregate deltas.
func checkRepairedRows(t *testing.T, o *Overlay, p *FloodPatch, proc ProcDelayFunc, rows map[int][]float64, tag string) {
	t.Helper()
	inf := math.Inf(1)
	want := make([]float64, o.NumSlots())
	for src, row := range rows {
		if !o.Alive(src) {
			continue
		}
		for len(row) < o.NumSlots() {
			row = append(row, inf)
		}
		preSum, preFinite := finiteSum(row)
		st, ok := o.RepairFloodRow(p, proc, src, row, 0)
		if !ok {
			t.Fatalf("%s: unbounded repair of row %d bailed", tag, src)
		}
		o.FloodLatenciesInto(src, proc, want)
		for i := range want {
			if row[i] != want[i] {
				t.Fatalf("%s: row %d entry %d = %v, want %v", tag, src, i, row[i], want[i])
			}
		}
		postSum, postFinite := finiteSum(row)
		if postFinite != preFinite+st.FiniteDelta {
			t.Fatalf("%s: row %d FiniteDelta = %d, want %d", tag, src, st.FiniteDelta, postFinite-preFinite)
		}
		if diff := math.Abs((preSum + st.SumDelta) - postSum); diff > 1e-9*(1+math.Abs(postSum)) {
			t.Fatalf("%s: row %d SumDelta drift %v (pre %v, delta %v, post %v)", tag, src, diff, preSum, st.SumDelta, postSum)
		}
	}
}

// TestRepairFloodRowRewire: random batches of PROP-O-style edge rewires;
// every repaired row must be bit-identical to a fresh flood, with and
// without processing delays, on irregular latencies (odd trials) and on
// quantised ones, where arrival times tie everywhere (even trials).
func TestRepairFloodRowRewire(t *testing.T) {
	for _, proc := range []ProcDelayFunc{nil, testProc} {
		r := rng.New(21)
		for trial := 0; trial < 8; trial++ {
			n := 24 + trial*8
			o := randomFloodOverlay(t, r, n, n)
			if trial%2 == 0 {
				o.lat = quantLat
			}
			rows := floodRows(o, proc)

			var removed, added []FloodEdge
			for k := 0; k < 3; k++ {
				// Remove a random present edge (keep the ring so the graph
				// stays connected — not required for correctness, but keeps
				// rows interesting).
				u := r.Intn(n)
				nbrs := o.Neighbors(u)
				v := nbrs[r.Intn(len(nbrs))]
				if !o.RemoveEdge(u, v) {
					t.Fatal("edge vanished")
				}
				removed = append(removed, FloodEdge{U: u, V: v, HostU: o.HostOf(u), HostV: o.HostOf(v)})
				// Add a random absent edge.
				for {
					a, b := r.Intn(n), r.Intn(n)
					if a == b || o.Logical.HasEdge(a, b) {
						continue
					}
					if err := o.AddEdge(a, b); err != nil {
						t.Fatal(err)
					}
					added = append(added, FloodEdge{U: a, V: b, HostU: o.HostOf(a), HostV: o.HostOf(b)})
					break
				}
			}
			checkRepairedRows(t, o, NewFloodPatch(removed, added), proc, rows, "rewire")
		}
	}
}

// TestRepairFloodRowChurn: crashes (stale edges become implicit removals),
// graceful leaves, and joins with fresh links, in one batch.
func TestRepairFloodRowChurn(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 6; trial++ {
		n := 32 + trial*8
		o := randomFloodOverlay(t, r, n, 2*n)
		if trial%2 == 0 {
			o.lat = quantLat // ties everywhere
		}
		rows := floodRows(o, testProc)

		var removed, added []FloodEdge

		// Crash-stop death: the slot's edges stay in the logical graph but a
		// flood ignores them, so the tracker lists them as removed using the
		// released host.
		cv := r.Intn(n)
		hostCV := o.HostOf(cv)
		for _, nb := range o.Neighbors(cv) {
			removed = append(removed, FloodEdge{U: cv, V: nb, HostU: hostCV, HostV: o.HostOf(nb)})
		}
		if err := o.CrashSlot(cv); err != nil {
			t.Fatal(err)
		}

		// Graceful leave of a different slot: same removal set, edges really
		// dropped.
		lv := (cv + n/2) % n
		hostLV := o.HostOf(lv)
		for _, nb := range o.Neighbors(lv) {
			removed = append(removed, FloodEdge{U: lv, V: nb, HostU: hostLV, HostV: o.HostOf(nb)})
		}
		if err := o.RemoveSlot(lv); err != nil {
			t.Fatal(err)
		}

		// Join: a new slot on a fresh host, linked to three live slots.
		js, err := o.AddSlot(3*n + 100)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			nb := r.Intn(n)
			if o.Alive(nb) && !o.Logical.HasEdge(js, nb) {
				if err := o.AddEdge(js, nb); err != nil {
					t.Fatal(err)
				}
				added = append(added, FloodEdge{U: js, V: nb, HostU: o.HostOf(js), HostV: o.HostOf(nb)})
			}
		}

		checkRepairedRows(t, o, NewFloodPatch(removed, added), testProc, rows, "churn")
	}
}

// TestRepairFloodRowBailout: a tiny affected budget must refuse the repair
// and leave the row untouched; unbounded repair of the same row then
// succeeds.
func TestRepairFloodRowBailout(t *testing.T) {
	r := rng.New(41)
	n := 48
	o := randomFloodOverlay(t, r, n, n/2)
	src := 0
	row := o.FloodLatenciesInto(src, nil, make([]float64, n))

	// Remove the victim's ring edges: a large chunk of the tree moves.
	victim := n / 2
	var removed []FloodEdge
	for _, nb := range o.Neighbors(victim) {
		removed = append(removed, FloodEdge{U: victim, V: nb, HostU: o.HostOf(victim), HostV: o.HostOf(nb)})
		o.RemoveEdge(victim, nb)
	}
	p := NewFloodPatch(removed, nil)

	before := append([]float64(nil), row...)
	if _, ok := o.RepairFloodRow(p, nil, src, row, 1); ok {
		t.Fatal("repair with maxAffected=1 succeeded")
	}
	for i := range row {
		if row[i] != before[i] {
			t.Fatalf("bailed repair mutated entry %d", i)
		}
	}
	if _, ok := o.RepairFloodRow(p, nil, src, row, 0); !ok {
		t.Fatal("unbounded repair bailed")
	}
	want := o.FloodLatenciesInto(src, nil, make([]float64, n))
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("entry %d = %v, want %v", i, row[i], want[i])
		}
	}
}

// TestRepairFloodRowEmptyPatch: an empty patch is a no-op success.
func TestRepairFloodRowEmptyPatch(t *testing.T) {
	o := randomFloodOverlay(t, rng.New(43), 8, 4)
	row := o.FloodLatenciesInto(0, nil, make([]float64, 8))
	before := append([]float64(nil), row...)
	st, ok := o.RepairFloodRow(NewFloodPatch(nil, nil), nil, 0, row, 0)
	if !ok || st != (FloodRepairStats{}) {
		t.Fatalf("empty patch: stats=%+v ok=%v", st, ok)
	}
	for i := range row {
		if row[i] != before[i] {
			t.Fatal("empty patch mutated the row")
		}
	}
}

// TestSlotEventHook asserts the four lifecycle events fire with
// pre-mutation hosts in mutation order.
func TestSlotEventHook(t *testing.T) {
	o := lineOverlay(t, []int{0, 10, 20, 30})
	mustEdge(t, o, 0, 1)
	mustEdge(t, o, 1, 2)
	mustEdge(t, o, 2, 3)
	var got []SlotEvent
	o.SetSlotEventHook(func(e SlotEvent) { got = append(got, e) })

	if err := o.SwapHosts(0, 2); err != nil {
		t.Fatal(err)
	}
	slot, err := o.AddSlot(40)
	if err != nil {
		t.Fatal(err)
	}
	mustEdge(t, o, slot, 3)
	if err := o.RemoveSlot(1); err != nil {
		t.Fatal(err)
	}
	if err := o.CrashSlot(3); err != nil {
		t.Fatal(err)
	}

	want := []SlotEvent{
		{Kind: SlotSwap, U: 0, V: 2, HostU: 0, HostV: 20},
		{Kind: SlotJoin, U: slot, V: -1, HostU: 40, HostV: -1},
		{Kind: SlotLeave, U: 1, V: -1, HostU: 10, HostV: -1},
		{Kind: SlotCrash, U: 3, V: -1, HostU: 30, HostV: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Removing the hook silences events.
	o.SetSlotEventHook(nil)
	if err := o.SwapHosts(0, 2); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatal("event fired after hook removal")
	}
}

package overlay

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// memoSample evaluates every lookup through m on four goroutines, as
// metrics.MeanLookupLatency does, holds each answer to FloodLatency bit for
// bit, and returns the answers and the point floods m ran for them.
func memoSample(t *testing.T, o *Overlay, m *FloodMemo, lookups [][2]int, tag string) ([]float64, int64) {
	t.Helper()
	got := make([]float64, len(lookups))
	before := m.floods.Load()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(4)
	for g := 0; g < 4; g++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(lookups); i = int(next.Add(1)) - 1 {
				got[i] = m.Latency(lookups[i][0], lookups[i][1])
			}
		}()
	}
	wg.Wait()
	floods := m.floods.Load() - before
	for i, l := range lookups {
		if want := o.FloodLatency(l[0], l[1], nil); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: Latency(%d,%d) = %v, FloodLatency %v", tag, l[0], l[1], got[i], want)
		}
	}
	return got, floods
}

// TestFloodMemoMatchesFloodLatency holds a FloodMemo to FloodLatency bit for
// bit, sample after sample, on two components with lookups within and
// across them, dead endpoints, src == dst and duplicates: through one swap
// and many, a crash, a join, a PROP-O trade, a joiner half a millisecond off
// the grid (the view leaves the order-free state and comes back), a second
// workload, then the mutation schedule of TestFloodViewMatchesReference
// between runs of swaps. It pins the fast path too: a sample with no slot
// moved floods nothing, one swap runs two rows, samples that ran rows
// spared most floods, and some certified latency fell through a moved slot,
// which only a row's fold can show.
func TestFloodMemoMatchesFloodLatency(t *testing.T) {
	lowered := 0 // samples where a latency moved without a flood: a row lowered it
	for i, lat := range []LatencyFunc{quantLat, zeroArcLat, offGridLat} {
		r := rng.New(uint64(40 + i))
		o := twoComponentOverlay(t, r, lat)
		var lookups [][2]int
		for k := 0; k < 200; k++ {
			lookups = append(lookups, [2]int{r.Intn(60), r.Intn(60)})
		}
		lookups = append(lookups, [2]int{3, 3}, [2]int{40, 40}, [2]int{5, 50})
		lookups = append(lookups, lookups[:20]...) // duplicates
		m := NewFloodMemo(o)
		pick := func() int { return o.AliveSlotAt(r.Intn(o.NumAlive())) }
		swaps := func(k int) {
			for ; k > 0; k-- {
				if u, v := pick(), pick(); u != v {
					if err := o.SwapHosts(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var prev []float64
		certified := 0 // samples that ran rows and flooded under half the lookups
		sample := func(tag string) int64 {
			rows := m.rows
			got, floods := memoSample(t, o, m, lookups, tag)
			changed := 0
			for j := range got {
				if prev != nil && math.Float64bits(got[j]) != math.Float64bits(prev[j]) {
					changed++
				}
			}
			if int64(changed) > floods {
				lowered++
			}
			if m.rows > rows && floods < int64(len(lookups))/2 {
				certified++
			}
			prev = got
			return floods
		}
		sample("first")
		swaps(1)
		sample("learnt")
		if f := sample("unchanged"); f != 0 {
			t.Fatalf("lat %d: a second sample of the same state flooded %d lookups", i, f)
		}
		u, v := pick(), pick()
		for u == v {
			v = pick()
		}
		o.SwapHosts(u, v)
		o.SwapHosts(u, v)
		if f := sample("swapped back"); f != 0 {
			t.Fatalf("lat %d: a sample with no slot moved flooded %d lookups", i, f)
		}
		rows := m.rows
		swaps(1)
		sample("one swap")
		if m.rows != rows+2 {
			t.Fatalf("lat %d: one swap ran %d rows, want 2", i, m.rows-rows)
		}
		swaps(12)
		sample("many swaps")

		if err := o.CrashSlot(pick()); err != nil {
			t.Fatal(err)
		}
		sample("crash")
		s, err := o.AddSlot(1001)
		if err != nil {
			t.Fatal(err)
		}
		o.Logical.MustAddEdge(s, pick(), 1)
		sample("join")
		for done := false; !done; {
			a, b := pick(), pick()
			if na, nb := o.Neighbors(a), o.Neighbors(b); a != b && len(na) > 0 && len(nb) > 0 {
				done = o.ExchangeNeighbors(a, b, []int{na[r.Intn(len(na))]}, []int{nb[r.Intn(len(nb))]}, nil) == nil
			}
		}
		sample("PROP-O trade")
		swaps(2)
		sample("swaps after the trade")

		s, err = o.AddSlot(1000)
		if err != nil {
			t.Fatal(err)
		}
		o.Logical.MustAddEdge(s, pick(), 1)
		sample("half-millisecond joiner")
		if i == 2 && viewOrderFree(o) {
			t.Fatal("the off-grid joiner left the view order-free")
		}
		swaps(2)
		sample("swaps beside the joiner")
		if err := o.RemoveSlot(s); err != nil {
			t.Fatal(err)
		}
		sample("joiner gone")
		swaps(2)
		sample("swaps after the joiner")

		if i == 2 {
			// The off-grid host enters the view by a swap alone and leaves it
			// the same way: the sample after it left floods every lookup.
			x, err := o.AddSlot(1002) // no link: the view stays order-free
			if err != nil {
				t.Fatal(err)
			}
			swaps(2)
			sample("isolated off-grid slot")
			swaps(2)
			sample("swaps beside the isolated slot")
			y := pick()
			for y == x || o.Degree(y) == 0 {
				y = pick()
			}
			o.SwapHosts(x, y)
			sample("off-grid host swapped in")
			if viewOrderFree(o) {
				t.Fatal("host 1002 on a linked slot, and the view is order-free")
			}
			o.SwapHosts(x, y)
			distinct := map[[2]int]bool{}
			for _, l := range lookups {
				if l[0] != l[1] && o.Alive(l[0]) && o.Alive(l[1]) {
					distinct[l] = true
				}
			}
			if f := sample("off-grid host swapped out"); !viewOrderFree(o) || f < int64(len(distinct)) {
				t.Fatalf("back to an order-free view: %d floods for %d lookups", f, len(distinct))
			}
		}

		// A second workload: half the lookups change. The memo learns the new
		// ones at the next state and keeps one entry per lookup ever asked.
		asked := map[[2]int]bool{}
		for _, l := range lookups {
			asked[l] = true
		}
		for k := 0; k < 100; k++ {
			lookups[k] = [2]int{r.Intn(60), r.Intn(60)}
			asked[lookups[k]] = true
		}
		for _, tag := range []string{"new lookups", "new lookups learnt", "new lookups certified"} {
			prev = nil
			swaps(1)
			sample(tag)
		}
		entries := 0
		for l := range asked {
			if l[0] != l[1] && o.Alive(l[0]) && o.Alive(l[1]) {
				entries++
			}
		}
		if len(m.keys) < entries {
			t.Fatalf("lat %d: %d entries for %d lookups asked", i, len(m.keys), entries)
		}

		nextHost := 1003
		for step := 0; step < 150; step++ {
			if r.Intn(4) == 0 {
				mutateFloodOverlay(t, o, r, &nextHost)
			} else {
				swaps(1 + r.Intn(3))
			}
			if r.Intn(2) == 0 {
				sample("schedule")
			}
		}
		if certified < 5 {
			t.Fatalf("lat %d: %d samples ran rows and spared most floods: the certified path went unexercised", i, certified)
		}
	}
	if lowered == 0 {
		t.Fatal("no certified latency ever fell through a moved slot: the rows' fold went unexercised")
	}
}

// FuzzFloodMemo: bytes → an overlay of 2–16 slots, slot i on host i, its
// host-pair latencies filled as FuzzFloodPoint fills them (by the records
// with c < 96), then the three-byte records (a, b, c) applied in order:
// c < 96 links slots a and b or unlinks them, c < 224 swaps their hosts,
// otherwise slot a crashes. After each record every ordered pair of slots
// goes through one FloodMemo and is held to FloodLatency bit for bit.
func FuzzFloodMemo(f *testing.F) {
	f.Add([]byte{4, 0, 1, 9, 1, 2, 10, 2, 3, 11, 3, 4, 12, 0, 3, 150, 1, 4, 150, 0, 3, 150}) // path, swaps, swap back
	f.Add([]byte{6, 0, 1, 1, 0, 2, 2, 0, 3, 1, 0, 4, 2, 0, 5, 1, 0, 6, 7, 0, 6, 200, 2, 5, 100,
		3, 4, 120, 0, 1, 1, 1, 6, 130}) // star, swaps, unlink, swap
	f.Add([]byte{6, 0, 1, 1, 1, 2, 1, 2, 3, 2, 3, 0, 1, 4, 5, 3, 5, 6, 1, 6, 7, 3,
		1, 5, 200, 2, 4, 180, 2, 0, 230, 4, 6, 100}) // two components, swaps across, a crash
	f.Add([]byte{3, 0, 1, 0, 1, 2, 8, 2, 3, 0, 3, 4, 16, 4, 0, 0, 0, 2, 150, 1, 3, 160}) // zero weights
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 1+3*48 {
			return
		}
		n := 2 + int(data[0])%15
		hosts := make([]int, n)
		for s := range hosts {
			hosts[s] = s
		}
		ms := make([]float64, n*n)
		for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
			if a, b, c := int(rec[0])%n, int(rec[1])%n, rec[2]; c < 96 {
				ms[a*n+b], ms[b*n+a] = 5*float64(c%8), 5*float64(c%8)
			}
		}
		o, err := New(hosts, func(a, b int) float64 { return ms[a*n+b] })
		if err != nil {
			t.Fatal(err)
		}
		var lookups [][2]int
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				lookups = append(lookups, [2]int{src, dst})
			}
		}
		m := NewFloodMemo(o)
		for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
			u, v, c := int(rec[0])%n, int(rec[1])%n, rec[2]
			if u == v || !o.Alive(u) || !o.Alive(v) {
				continue
			}
			switch {
			case c < 96 && o.Logical.HasEdge(u, v):
				o.Logical.RemoveEdge(u, v)
			case c < 96:
				o.Logical.MustAddEdge(u, v, 1)
			case c < 224:
				if err := o.SwapHosts(u, v); err != nil {
					t.Fatal(err)
				}
			case o.NumAlive() > 2:
				if err := o.CrashSlot(u); err != nil {
					t.Fatal(err)
				}
			}
			memoSample(t, o, m, lookups, "after record")
		}
	})
}

package overlay

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// memoPathCap is how many slots between src and dst a FloodMemo entry keeps
// of its lookup's shortest path. A longer path is no certificate, and its
// lookup floods at every sample that moved a slot. 7 makes an entry 40 bytes;
// on the ledger world (ts-large, 1 000 Gnutella slots, seed 1) fewer than
// 0.5 % of the recorded paths are longer.
const memoPathCap = 7

// memoRowCost is the price of one full row (floodRun from a moved slot) in
// point floods (floodPoint). A FloodMemo runs rows only when memoRowCost ×
// rows is below the point floods they spare. On the ledger world a row took
// 6.2–8.4 times a point flood's mean time over three passes.
const memoRowCost = 7

// The states of a memoEntry. A memoPath state holds the path's length in
// the bits above the low eight.
const (
	memoStale uint32 = iota // d describes an earlier overlay state: flood
	memoBusy                // one caller is flooding the lookup now
	memoExact               // d is exact; no path certifies it for the next state
	memoPath                // d is exact, and path[:state>>8] certifies it
)

// memoEntry is what a FloodMemo keeps of one lookup: its latency d and the
// slots, src and dst excepted, of one shortest path of that length.
type memoEntry struct {
	d     float64
	state uint32 // read and written atomically while a sample runs
	path  [memoPathCap]int32
}

// FloodMemo answers FloodLatency(src, dst, nil) for the same lookups sample
// after sample, flooding again only those a mutation may have moved. It keeps
// one entry per lookup (src, dst) asked for: the latency at the state it last
// saw, and the shortest path floodPoint found, as a certificate.
//
// Between two states, let C be the slots whose host moved. If a lookup's
// path avoids C, every arc of it kept its weight, and so did every path that
// avoids C; so the new latency is min(d, min over c ∈ C of d(c,src) +
// d(c,dst)). The first call to see a new state checks every path against C
// and, when they cost less than the point floods they spare, runs |C| full
// rows from the moved slots (floodRun; the view's weights are symmetric).
// A lookup whose path touches C, or has no path, floods as FloodLatency does.
//
// Every lookup floods when the view is not order-free now or was not at the
// last state, or when the logical graph or the set of live slots moved
// (PROP-O trades, joins, leaves, crashes, repairs): only a host swap leaves
// the argument above standing. (A state that is not order-free leaves every
// entry stale and records nothing, so the state after it floods everything.)
// The answer is FloodLatency's, bit for bit.
//
// Latency is safe for concurrent callers and for duplicate lookups, under
// the rule that queries never overlap mutations (DESIGN.md §7). The state
// lives here, not on the Overlay, and dies with the FloodMemo.
type FloodMemo struct {
	o     *Overlay
	mu    sync.Mutex    // serialises the first call at a new state and learning
	stamp atomic.Uint64 // the view stamp the entries describe; 0 before any call

	// The overlay at stamp, which the next state is compared with.
	logVer uint64
	hostOf []int

	keys  []uint64    // src<<32 | dst, ascending
	ents  []memoEntry // one per key
	fresh []uint64    // keys asked for at stamp that have no entry (under mu)
	moved []int32     // C, while certify runs its rows

	// certify's rows: the next one to claim, the lock on the fold, the
	// goroutines beside the caller.
	next atomic.Int32
	fold sync.Mutex
	wg   sync.WaitGroup

	floods atomic.Int64 // point floods run
	rows   int          // full rows run (under mu)
}

// NewFloodMemo returns an evaluator of o's point flood latencies.
func NewFloodMemo(o *Overlay) *FloodMemo { return &FloodMemo{o: o} }

// Latency returns FloodLatency(src, dst, nil).
func (m *FloodMemo) Latency(src, dst int) float64 {
	o := m.o
	if !o.Alive(src) || !o.Alive(dst) {
		return math.Inf(1)
	}
	if src == dst {
		return 0
	}
	off, nbr, w := o.floodArcs()
	if st := o.view.stamp.Load(); m.stamp.Load() != st {
		m.advance(st)
	}
	if !o.view.orderFree {
		m.floods.Add(1)
		return o.FloodLatency(src, dst, nil)
	}
	key := uint64(src)<<32 | uint64(dst)
	var e *memoEntry
	if i, ok := slices.BinarySearch(m.keys, key); ok {
		e = &m.ents[i]
		switch st := atomic.LoadUint32(&e.state); {
		case st >= memoExact:
			return e.d
		case !atomic.CompareAndSwapUint32(&e.state, memoStale, memoBusy):
			e = nil // a duplicate lookup is flooding it: flood, record nothing
		}
	} else {
		m.mu.Lock()
		if !slices.Contains(m.fresh, key) {
			if m.fresh == nil {
				m.fresh = make([]uint64, 0, o.NumAlive()) // about one lookup per slot
			}
			m.fresh = append(m.fresh, key)
		}
		m.mu.Unlock()
	}
	m.floods.Add(1)
	s := o.floodGet()
	d, meet := s.floodPoint(off, nbr, w, src, dst)
	if e != nil {
		e.d = d
		state := memoExact
		if meet >= 0 {
			if n, ok := s.floodPath(off, nbr, w, src, dst, meet, e.path[:]); ok {
				state = memoPath | uint32(n)<<8
			}
		}
		atomic.StoreUint32(&e.state, state)
	}
	o.floodPut(s)
	return d
}

// advance moves the entries to view stamp st, unless a concurrent caller
// already has: it adds the lookups learnt at the last state, compares the
// overlay with its snapshot and certifies what it can.
func (m *FloodMemo) advance(st uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stamp.Load() == st {
		return
	}
	o := m.o
	m.learn()
	moved := -1 // the number of slots in C; -1 floods every lookup
	if m.stamp.Load() != 0 && o.view.orderFree &&
		m.logVer == o.Logical.Version() && len(m.hostOf) == len(o.hostOf) {
		moved = 0
		for u, h := range m.hostOf {
			if g := o.hostOf[u]; g != h {
				if g < 0 || h < 0 { // a dead slot's host is -1: a slot died
					moved = -1
					break
				}
				moved++
			}
		}
	}
	if moved != 0 { // with C empty every exact entry stays exact
		m.certify(moved)
	}
	m.logVer = o.Logical.Version()
	m.hostOf = append(m.hostOf[:0], o.hostOf...)
	m.stamp.Store(st)
}

// certify leaves exact the entries whose path avoids the moved slots (all
// but the snapshot's hosts) and lowers them by the rows from those slots, or
// leaves every entry stale if moved < 0 or the rows cost more than they save.
func (m *FloodMemo) certify(moved int) {
	o := m.o
	kept := 0
	for i := range m.ents {
		e := &m.ents[i]
		if moved > 0 && e.state&0xff == memoPath && m.avoids(m.keys[i], e.path[:e.state>>8]) {
			kept++
		} else {
			e.state = memoStale
		}
	}
	if kept == 0 {
		return
	}
	if memoRowCost*moved >= kept {
		for i := range m.ents {
			m.ents[i].state = memoStale
		}
		return
	}
	m.moved = m.moved[:0]
	for c, h := range m.hostOf {
		if o.hostOf[c] != h {
			m.moved = append(m.moved, int32(c))
		}
	}
	m.rows += len(m.moved)
	// The rows run on as many goroutines as the lookups would, this one
	// included; the fold is a minimum of exact sums, so its order changes no bit.
	m.next.Store(0)
	workers := min(runtime.GOMAXPROCS(0), len(m.moved))
	m.wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer m.wg.Done()
			m.runRows()
		}()
	}
	m.runRows()
	m.wg.Wait()
}

// runRows claims rows from the moved slots until none is left and folds each
// into the entries.
func (m *FloodMemo) runRows() {
	s := m.o.floodGet()
	for r := int(m.next.Add(1)) - 1; r < len(m.moved); r = int(m.next.Add(1)) - 1 {
		m.o.floodRun(int(m.moved[r]), -1, nil, s)
		m.fold.Lock()
		m.lower(s.dist)
		m.fold.Unlock()
	}
	m.o.floodPut(s)
}

// lower folds the row from one moved slot c into the certified entries:
// d(src,c) + d(c,dst), both read from the row as the view is symmetric.
func (m *FloodMemo) lower(row []float64) {
	for i, key := range m.keys {
		if e := &m.ents[i]; e.state != memoStale {
			if t := row[key>>32] + row[uint32(key)]; t < e.d {
				e.d, e.state = t, memoExact // exact, but its path is no longer a shortest one
			}
		}
	}
}

// avoids reports whether the lookup key and the path slots all kept the host
// the snapshot holds.
func (m *FloodMemo) avoids(key uint64, path []int32) bool {
	hostOf := m.o.hostOf
	if src, dst := key>>32, uint32(key); hostOf[src] != m.hostOf[src] || hostOf[dst] != m.hostOf[dst] {
		return false
	}
	for _, u := range path {
		if hostOf[u] != m.hostOf[u] {
			return false
		}
	}
	return true
}

// learn gives every key learnt at the last state a stale entry, keeping the
// keys ascending. A FloodMemo keeps one entry per distinct lookup it was ever
// asked, so a workload that keeps its lookups allocates here once.
func (m *FloodMemo) learn() {
	if len(m.fresh) == 0 {
		return
	}
	slices.Sort(m.fresh)
	if len(m.keys) == 0 { // the first lookups: fresh becomes keys
		m.keys, m.ents, m.fresh = m.fresh, make([]memoEntry, len(m.fresh)), nil
		return
	}
	n := len(m.keys) + len(m.fresh)
	keys, ents := make([]uint64, 0, n), make([]memoEntry, 0, n)
	for i, j := 0, 0; i < len(m.keys) || j < len(m.fresh); {
		if j == len(m.fresh) || (i < len(m.keys) && m.keys[i] < m.fresh[j]) {
			keys, ents = append(keys, m.keys[i]), append(ents, m.ents[i])
			i++
		} else {
			keys, ents = append(keys, m.fresh[j]), append(ents, memoEntry{})
			j++
		}
	}
	m.keys, m.ents, m.fresh = keys, ents, m.fresh[:0]
}

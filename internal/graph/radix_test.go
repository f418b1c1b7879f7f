package graph

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// radixModel drives a RadixQueue and a plain reference — each slot's current
// time and whether it is queued — through one monotone schedule, the way a
// Dijkstra loop would: a push lowers a slot's time, never below the last pop.
type radixModel struct {
	t      *testing.T
	q      RadixQueue
	dist   []float64 // +Inf until first pushed
	queued []bool    // pushed and not yet popped
	last   uint64    // key of the last pop
	peak   int       // most entries ever queued at once, superseded ones included
}

func newRadixModel(t *testing.T, slots int) *radixModel {
	m := &radixModel{t: t, dist: make([]float64, slots), queued: make([]bool, slots)}
	for i := range m.dist {
		m.dist[i] = math.Inf(1)
	}
	m.q.Reset()
	return m
}

// push queues slot at the time whose bits are key, which must lie in
// [last, bits of the slot's current time): monotone, and an improvement.
func (m *radixModel) push(slot int, key uint64) {
	m.dist[slot] = math.Float64frombits(key)
	m.queued[slot] = true
	m.q.Push(int32(slot), m.dist[slot])
	m.checkArena()
}

// pop asserts that the queue yields a queued slot of least current time, or
// reports empty exactly when no slot is queued.
func (m *radixModel) pop() {
	m.t.Helper()
	want, any := uint64(0), false
	for s, in := range m.queued {
		if k := math.Float64bits(m.dist[s]); in && (!any || k < want) {
			want, any = k, true
		}
	}
	slot, ok := m.q.Pop(m.dist)
	m.checkArena()
	if ok != any {
		m.t.Fatalf("pop ok = %v with reference empty = %v", ok, !any)
	}
	if !ok {
		return
	}
	if got := math.Float64bits(m.dist[slot]); !m.queued[slot] || got != want {
		m.t.Fatalf("pop = slot %d (queued %v) at key %#x, reference minimum %#x", slot, m.queued[slot], got, want)
	}
	m.queued[slot] = false
	m.last = want
}

// checkArena walks every bucket and the free list: each arena entry sits on
// exactly one of them, and the arena is no longer than the most entries ever
// queued at once — popped and superseded entries are reused, not kept.
func (m *radixModel) checkArena() {
	m.t.Helper()
	linked, spare := 0, 0
	for _, h := range m.q.head {
		for i := h; i >= 0; i = m.q.ent[i].next {
			if linked++; linked > len(m.q.ent) {
				m.t.Fatal("bucket lists hold more entries than the arena")
			}
		}
	}
	for i := m.q.free; i >= 0; i = m.q.ent[i].next {
		if spare++; spare > len(m.q.ent) {
			m.t.Fatal("free list holds more entries than the arena")
		}
	}
	if linked+spare != len(m.q.ent) {
		m.t.Fatalf("arena of %d entries: %d queued + %d free", len(m.q.ent), linked, spare)
	}
	if linked > m.peak {
		m.peak = linked
	}
	if len(m.q.ent) > m.peak {
		m.t.Fatalf("arena grew to %d entries, peak queued %d", len(m.q.ent), m.peak)
	}
}

// radixKey picks a key in [last, cur) from one schedule byte: the edge cases
// first — a tie with the last pop, its adjacent double, the double just below
// the slot's current time, 0, the smallest denormal, 1e300 — then power-of-two
// jumps in bit space, 5 ms steps, and the midpoint.
func radixKey(b byte, last, cur uint64) uint64 {
	var key uint64
	switch arg := uint64(b >> 3); b % 8 {
	case 0:
		key = last
	case 1:
		key = last + 1
	case 2:
		key = cur - 1
	case 3:
		key = arg % 2 // 0, or the smallest denormal
	case 4:
		key = math.Float64bits(1e300)
	case 5:
		key = last + 1<<(2*arg)
	case 6:
		key = math.Float64bits(math.Float64frombits(last) + 5*float64(arg))
	case 7:
		key = last + (cur-last)/2
	}
	if key < last {
		key = last
	}
	if key >= cur {
		key = cur - 1
	}
	return key
}

// runRadixSchedule decodes data into a monotone schedule over 40 slots and
// runs it: data[0] sets how many pushes come before the first pop (0–63: one
// source, as a flood starts, up to the many seeds of a repair flood, all
// filed under last = 0), then each byte pair is a pop (one time in four) or a
// push of (slot, radixKey). What is left at the end is drained, so the pops
// of a schedule are the sorted order of everything it queued.
func runRadixSchedule(t *testing.T, data []byte) {
	const slots = 40
	if len(data) == 0 {
		return
	}
	m := newRadixModel(t, slots)
	seeds := int(data[0]) % 64
	for data = data[1:]; len(data) >= 2; data = data[2:] {
		if seeds == 0 && data[0]%4 == 0 {
			m.pop()
			continue
		}
		if seeds > 0 {
			seeds--
		}
		slot := int(data[0]>>2) % slots
		if cur := math.Float64bits(m.dist[slot]); cur > m.last {
			m.push(slot, radixKey(data[1], m.last, cur))
		}
	}
	for n := 0; n <= slots; n++ {
		m.pop()
	}
	for s, in := range m.queued {
		if in {
			t.Fatalf("slot %d still queued after %d pops", s, slots+1)
		}
	}
}

// TestRadixQueueMatchesSortedReference: seeded random monotone schedules.
func TestRadixQueueMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		data := make([]byte, 2+r.Intn(600))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		runRadixSchedule(t, data)
	}
}

// TestRadixQueueReset: a reset queue is empty whatever it held (an early-exit
// flood leaves its frontier behind), files under last = 0 again, and keeps
// its arena's storage; Grow reserves room that later pushes fill in place.
func TestRadixQueueReset(t *testing.T) {
	var q RadixQueue
	q.Reset()
	dist := []float64{30, 10, 20}
	for s, d := range dist {
		q.Push(int32(s), d)
	}
	if s, ok := q.Pop(dist); !ok || s != 1 {
		t.Fatalf("pop = %d, %v, want slot 1", s, ok)
	}
	q.Reset() // two entries still queued, last = bits(10)
	if _, ok := q.Pop(dist); ok {
		t.Fatal("reset queue is not empty")
	}
	if len(q.ent) != 0 || cap(q.ent) < 3 {
		t.Fatalf("reset arena has len %d cap %d, want 0 and >= 3", len(q.ent), cap(q.ent))
	}
	dist[0] = 5 // below the pre-reset last
	q.Push(2, 20)
	q.Push(0, 5)
	if s, ok := q.Pop(dist); !ok || s != 0 {
		t.Fatalf("pop after reset = %d, %v, want slot 0", s, ok)
	}
	q.Reset()
	q.Grow(64)
	arena := &q.ent[:1][0]
	for s := range dist {
		q.Push(int32(s), 40)
	}
	for range 60 {
		q.Push(0, 40)
	}
	if len(q.ent) != 63 || &q.ent[0] != arena {
		t.Fatalf("63 pushes after Grow(64): arena len %d, reallocated %v", len(q.ent), &q.ent[0] != arena)
	}
}

func FuzzRadixQueue(f *testing.F) {
	// A push byte is slot<<2|1, a key byte arg<<3|mode, {0, 0} a pop.
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0})                           // one source at time 0, popped, then empty
	f.Add([]byte{40, 0, 4, 4, 11, 8, 3, 12, 30, 16, 30, 20, 85}) // six seeds under last = 0: 1e300, denormal, 0, a tie at 15
	f.Add([]byte{0, 1, 4, 1, 7, 1, 7, 1, 1, 0, 0})               // one slot superseded three times, then popped
	f.Add([]byte{0, 1, 30, 0, 0, 5, 0, 9, 1, 13, 2, 0, 0, 0, 0}) // after a pop at 15: a tie with it, its adjacent double, MaxFloat64
	f.Fuzz(runRadixSchedule)
}

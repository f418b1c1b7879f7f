package graph

import (
	"math"
	"math/bits"
	"slices"
)

// RadixQueue is the repository's one flood queue: a monotone radix heap of
// (vertex, arrival time) entries keyed on math.Float64bits of the time —
// non-negative doubles order like their bit patterns. It serves Dijkstra
// loops whose pops never decrease (no key pushed is below the key last
// popped), which a comparison heap cannot use and this queue leans on.
//
// An entry is filed under bits.Len64(key ^ last), last being the key last
// popped: bucket 0 holds exactly the ties at the minimum, every key of a
// bucket lies below every key of the next, and push is O(1). Pop serves
// bucket 0; when it is empty it makes the least current key of the lowest
// non-empty bucket the new last and re-files that bucket under it. Each entry
// lands strictly lower, so it moves at most 64 times — two or three when
// times are multiples of 5 ms, as on the transit-stub networks (DESIGN.md §4)
// — and higher buckets, placed by bits on which old and new last agree, stay.
//
// There is no decrease-key: an improved vertex is pushed again, and a split
// drops the entry it superseded, whose key is no longer
// Float64bits(dist[vertex]). Entries live in one arena threaded through next;
// popped and superseded ones go on a free list, so the arena holds the
// frontier, not the flood's history. The order of pops among equal keys is an
// accident of the bucket lists; no caller may read it (DESIGN.md §7 "Flood
// queue"). The zero value is not ready: call Reset first.
type RadixQueue struct {
	last uint64
	head [65]int32 // first entry of each bucket, −1 when empty
	free int32     // first entry of the free list, −1 when empty
	ent  []radixEntry
}

type radixEntry struct {
	key  uint64
	v    int32
	next int32
}

// Reset empties the queue, keeping the arena's storage, with last = 0: the
// first pushes may carry any keys (a repair flood seeds many).
func (q *RadixQueue) Reset() {
	q.last, q.free, q.ent = 0, -1, q.ent[:0]
	for b := range q.head {
		q.head[b] = -1
	}
}

// Grow reserves arena storage for n more entries, so a queue that never holds
// more allocates nothing after it.
func (q *RadixQueue) Grow(n int) { q.ent = slices.Grow(q.ent, n) }

// Push queues vertex v at time d, which must be non-negative, not NaN and not
// below the time of the last pop.
func (q *RadixQueue) Push(v int32, d float64) {
	key := math.Float64bits(d)
	i := q.free
	if i >= 0 {
		q.free = q.ent[i].next
	} else {
		i = int32(len(q.ent))
		q.ent = append(q.ent, radixEntry{})
	}
	b := bits.Len64(key ^ q.last)
	q.ent[i] = radixEntry{key: key, v: v, next: q.head[b]}
	q.head[b] = i
}

// Pop removes and returns a vertex of least time among the current entries —
// those whose key is still Float64bits(dist[vertex]) — and false once none is
// left. Bucket 0 needs no such test: a push that supersedes an entry is below
// its key and not below last, so the entry sits in a higher bucket then, and
// the split that would move it down drops it.
func (q *RadixQueue) Pop(dist []float64) (v int32, ok bool) {
	for q.head[0] < 0 {
		b := 1
		for b < len(q.head) && q.head[b] < 0 {
			b++
		}
		if b == len(q.head) {
			return 0, false
		}
		// First walk: unlink the superseded entries and find the least key of
		// the rest. Second walk: re-file the rest under it.
		min := uint64(math.MaxUint64)
		link := &q.head[b]
		for i := *link; i >= 0; i = *link {
			e := &q.ent[i]
			if math.Float64bits(dist[e.v]) != e.key {
				*link = e.next
				e.next, q.free = q.free, i
				continue
			}
			if e.key < min {
				min = e.key
			}
			link = &e.next
		}
		i := q.head[b]
		if i < 0 {
			continue // the whole bucket was superseded; last stands
		}
		q.head[b], q.last = -1, min
		for i >= 0 {
			e := &q.ent[i]
			next := e.next
			nb := bits.Len64(e.key ^ min)
			e.next, q.head[nb] = q.head[nb], i
			i = next
		}
	}
	i := q.head[0]
	e := &q.ent[i]
	q.head[0] = e.next
	e.next, q.free = q.free, i
	return e.v, true
}

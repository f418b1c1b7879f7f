package shard

// The event currency of the sharded engine. The sequential engine
// (internal/event) stores closures; at 10⁶ peers and ~10⁷–10⁸ events a
// closure per event is pure allocator pressure, so shards trade generality
// for a fixed-size typed message: every protocol step is one msg value,
// payloads (occupant rows) are inline arrays, and the per-shard event queue
// (msgQueue) orders 24-byte keys that point at the parked msg.

// kind discriminates the protocol messages of the sharded PROP-G variant.
type kind uint8

const (
	// kProbe is a peer's self-timer starting one probe cycle.
	kProbe kind = iota
	// kWalk forwards a random walk; a holds the probing peer, hops the
	// remaining length.
	kWalk
	// kReport is the walk endpoint reporting itself to the probing peer:
	// a = its slot, b = its swap version, row = its occupant cache.
	kReport
	// kCommit proposes a slot swap to the reported peer: a = the proposer's
	// slot, b = the version the proposal is conditioned on, row = the
	// proposer's occupant cache (the partner's new cache, pre-remap).
	kCommit
	// kCommitOK accepts a swap: a = the acceptor's old slot (the proposer's
	// new one), row = the proposer's new occupant cache (already remapped).
	kCommitOK
	// kReject refuses a proposal (version moved or acceptor locked). It is
	// advisory: nothing handles its arrival (core.Txn).
	kReject
	// kNotify updates one believed occupant: slot a is now held by the
	// sending peer.
	kNotify
	// kCrash is a self-timer killing the peer (crash-stop churn): the peer
	// flips dead, drops every later arrival, and never recovers. Scheduled
	// at Run start from the stateless crash schedule.
	kCrash
	// kProbeTO is the probe-cycle timeout self-timer: if the peer is still
	// awaiting a walk report for the cycle identified by c, the cycle is
	// abandoned and the first-hop neighbor accrues a liveness strike.
	kProbeTO
	// kCommitTO is the two-phase-swap timeout self-timer: if the peer is
	// still locked awaiting the acknowledgment of the proposal identified
	// by c, the swap is aborted (nothing moved — core.Txn says why).
	kCommitTO
)

// msg is one event. origin/oseq form — with the arrival time — the total
// ordering key: origin is the peer that sent the message (or owns the
// timer) and oseq its per-peer send counter, so keys are unique and the
// pop order of any one peer's events is independent of both goroutine
// scheduling and the shard partition (see the package comment).
//
// c carries the sender's probe-cycle number (core.Txn): a reply can
// straggle in after its cycle timed out and a new one started, so every
// cycle-scoped message echoes the number and the machine discards
// mismatches.
type msg struct {
	at     float64
	origin int32
	oseq   uint32
	from   int32
	to     int32
	a, b   int32
	c      int32
	kind   kind
	hops   uint8
	rlen   uint8
	row    [maxDeg]int32
}

// timer reports whether k is a self-timer: from == to == origin and c is
// the whole payload, so the event lives in its key alone.
func (k kind) timer() bool { return k == kProbe || k >= kCrash }

// heapKey is what the queue orders: the ordering key plus where to find
// the rest of the event. For a self-timer ref is the cycle counter c; for
// every other kind it indexes the msg parked in the queue's slab.
type heapKey struct {
	at     float64
	origin int32
	oseq   uint32
	ref    int32
	kind   kind
}

// msgLess orders events by (arrival, origin, per-origin sequence). Keys
// are unique: a peer never reuses a sequence number.
func msgLess(x, y *heapKey) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.origin != y.origin {
		return x.origin < y.origin
	}
	return x.oseq < y.oseq
}

// msgQueue is a shard's event queue, a two-tier calendar (DESIGN.md §12
// "Event queue"). Keys of the drained buckets ⌊at/bucketMS⌋ < edge live in
// near, a 4-ary min-heap (4-ary as in the Dijkstra kernels, DESIGN.md §7).
// Every later key is appended, unsorted, to its bucket's chunk list, where
// the resident probe timers wait out their minute unsifted. ⌊at/bucketMS⌋
// is monotone in at, so near's root is the (at, origin, oseq)-minimum.
// Payload msgs are parked in slab, recycled through free; drained chunks go
// on the free list at freeChunk. Neither outgrows its peak need (slab: the
// payloads in flight; chunks: far keys / chunkKeys plus one per bucket).
type msgQueue struct {
	near      []heapKey
	edge      int64   // the first undrained bucket
	far       int     // keys in the far tier
	ring      []int32 // bucket b's newest chunk at ring[b mod len], b in [edge, edge+len)
	blocks    []*[chunksPerBlock]chunk
	chunks    int32 // chunks carved from blocks
	freeChunk int32
	slab      []msg
	free      []int32
}

// bucketMS, the bucket width, is ≈ 2.8 lookaheads at the fig5* latencies.
// Chunks come in blocks of chunksPerBlock that never move once allocated.
const (
	bucketMS       = 250.0
	chunkKeys      = 16
	chunksPerBlock = 256
)

// chunk is one link of a far bucket's key list, or of the free list. Chunk
// ids are 1-based, so 0 ends a list.
type chunk struct {
	keys [chunkKeys]heapKey
	n    int32
	next int32
}

func bucketOf(at float64) int64 { return int64(at / bucketMS) }

func (q *msgQueue) chunk(c int32) *chunk {
	return &q.blocks[(c-1)/chunksPerBlock][(c-1)%chunksPerBlock]
}

func (q *msgQueue) push(m msg) {
	k := heapKey{at: m.at, origin: m.origin, oseq: m.oseq, ref: m.c, kind: m.kind}
	if !m.kind.timer() {
		if n := len(q.free); n > 0 {
			k.ref = q.free[n-1]
			q.free = q.free[:n-1]
			q.slab[k.ref] = m
		} else {
			k.ref = int32(len(q.slab))
			q.slab = append(q.slab, m)
		}
	}
	b := bucketOf(k.at)
	if b < q.edge {
		q.near = append(q.near, k)
		q.siftUp(len(q.near)-1, k)
		return
	}
	if b-q.edge >= int64(len(q.ring)) {
		q.grow(b)
	}
	head := &q.ring[b&int64(len(q.ring)-1)]
	if *head == 0 || q.chunk(*head).n == chunkKeys {
		*head = q.newChunk(*head)
	}
	ch := q.chunk(*head)
	ch.keys[ch.n] = k
	ch.n++
	q.far++
}

// grow widens the ring, a power of two long, until it reaches bucket b.
func (q *msgQueue) grow(b int64) {
	n := max(len(q.ring), 64)
	for b-q.edge >= int64(n) {
		n *= 2
	}
	ring := make([]int32, n)
	for i := q.edge; i < q.edge+int64(len(q.ring)); i++ {
		ring[i&int64(n-1)] = q.ring[i&int64(len(q.ring)-1)]
	}
	q.ring = ring
}

// newChunk returns an empty chunk linked to next, off the free list or
// carved from the last block.
func (q *msgQueue) newChunk(next int32) int32 {
	c := q.freeChunk
	if c != 0 {
		q.freeChunk = q.chunk(c).next
	} else {
		if q.chunks%chunksPerBlock == 0 {
			q.blocks = append(q.blocks, new([chunksPerBlock]chunk))
		}
		q.chunks++
		c = q.chunks
	}
	ch := q.chunk(c)
	ch.n, ch.next = 0, next
	return c
}

// drainNext moves bucket edge into the near tier, frees its chunks and
// advances edge.
func (q *msgQueue) drainNext() {
	if len(q.ring) > 0 {
		head := &q.ring[q.edge&int64(len(q.ring)-1)]
		for c := *head; c != 0; {
			ch := q.chunk(c)
			for _, k := range ch.keys[:ch.n] {
				q.near = append(q.near, k)
				q.siftUp(len(q.near)-1, k)
			}
			q.far -= int(ch.n)
			c, ch.next, q.freeChunk = ch.next, q.freeChunk, c
		}
		*head = 0
	}
	q.edge++
}

// advance drains every bucket up to ⌊t/bucketMS⌋: every key before t is
// then in the near tier.
func (q *msgQueue) advance(t float64) {
	for b := bucketOf(t); q.edge <= b; {
		q.drainNext()
	}
}

// next returns the earliest pending key, draining buckets until the near
// tier holds one, or nil when the queue is empty.
func (q *msgQueue) next() *heapKey {
	for len(q.near) == 0 && q.far > 0 {
		q.drainNext()
	}
	if len(q.near) == 0 {
		return nil
	}
	return &q.near[0]
}

// pop removes the near tier's root — the earliest pending key once next or
// advance put it there — and rebuilds the msg that was pushed. The pop is
// Floyd's: the hole at the root walks down to a leaf along the least child,
// and the last key sifts up from there.
func (q *msgQueue) pop() msg {
	top, last := q.near[0], q.near[len(q.near)-1]
	q.near = q.near[:len(q.near)-1]
	if h, n := q.near, len(q.near); n > 0 {
		i := 0
		for first := 1; first < n; first = i<<2 + 1 {
			best := first
			for c := first + 1; c < min(first+4, n); c++ {
				if msgLess(&h[c], &h[best]) {
					best = c
				}
			}
			h[i] = h[best]
			i = best
		}
		q.siftUp(i, last)
	}
	if top.kind.timer() {
		return msg{at: top.at, origin: top.origin, oseq: top.oseq, from: top.origin, to: top.origin, c: top.ref, kind: top.kind}
	}
	q.free = append(q.free, top.ref)
	return q.slab[top.ref]
}

// siftUp places k at the near tier's hole i, past every larger parent.
func (q *msgQueue) siftUp(i int, k heapKey) {
	h := q.near
	for i > 0 {
		p := (i - 1) >> 2
		if !msgLess(&k, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}

package shard

// The event currency of the sharded engine. The sequential engine
// (internal/event) stores closures; at 10⁶ peers and ~10⁷–10⁸ events a
// closure per event is pure allocator pressure, so shards trade generality
// for a fixed-size typed message: every protocol step is one msg value,
// payloads (occupant rows) are inline arrays, and the per-shard 4-ary heap
// orders 24-byte keys that point at the parked msg (msgHeap).

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
	// kReject refuses a proposal (version moved or acceptor locked).
	kReject
	// kNotify updates one believed occupant: slot a is now held by the
	// sending peer.
	kNotify
	// kCrash is a self-timer killing the peer (crash-stop churn): the peer
	// flips dead, drops every later arrival, and never recovers. Scheduled
	// at Run start from the stateless crash schedule; only exists when
	// faults are enabled.
	kCrash
	// kProbeTO is the probe-cycle timeout self-timer: if the peer is still
	// awaiting a walk report for the cycle identified by c, the cycle is
	// abandoned and the first-hop neighbor accrues a liveness strike. Only
	// scheduled when faults are enabled.
	kProbeTO
	// kCommitTO is the two-phase-swap timeout self-timer: if the peer is
	// still locked awaiting the acknowledgment of the proposal identified
	// by c, the swap is aborted (nothing moved — see handleCommitTO for
	// why the abort is safe). Only scheduled when faults are enabled.
	kCommitTO
)

// msg is one event. origin/oseq form — with the arrival time — the total
// ordering key: origin is the peer that sent the message (or owns the
// timer) and oseq its per-peer send counter, so keys are unique and the
// pop order of any one peer's events is independent of both goroutine
// scheduling and the shard partition (see the package comment).
//
// c carries the sender's probe-cycle counter (Engine.txn): under faults a
// reply can straggle in after its cycle timed out and a new one started,
// so every cycle-scoped message echoes the counter and handlers discard
// mismatches. Fault-free runs never time out, the guard never fires, and
// the schedule is unchanged.
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
// the whole payload, so the event lives in its heap key alone.
func (k kind) timer() bool { return k == kProbe || k >= kCrash }

// heapKey is what the heap sifts: the ordering key plus where to find the
// rest of the event. For a self-timer ref is the cycle counter c; for every
// other kind it indexes the msg parked in the heap's slab.
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

// msgHeap is a 4-ary min-heap of 24-byte keys ordered by msgLess (4-ary for
// the same reason as the Dijkstra kernels, DESIGN.md §7: pops dominate and
// shallower trees miss less). Self-timers — the resident majority, one
// probe timer per peer — carry no payload; the others park their msg in
// slab, whose vacated indices are recycled through free, so slab never
// outgrows the peak number of payload messages in flight.
type msgHeap struct {
	a    []heapKey
	slab []msg
	free []int32
}

func (h *msgHeap) len() int { return len(h.a) }

// min returns the smallest key without removing it. Callers must check len
// first.
func (h *msgHeap) min() *heapKey { return &h.a[0] }

func (h *msgHeap) push(m msg) {
	k := heapKey{at: m.at, origin: m.origin, oseq: m.oseq, ref: m.c, kind: m.kind}
	if !m.kind.timer() {
		if n := len(h.free); n > 0 {
			k.ref = h.free[n-1]
			h.free = h.free[:n-1]
			h.slab[k.ref] = m
		} else {
			k.ref = int32(len(h.slab))
			h.slab = append(h.slab, m)
		}
	}
	h.a = append(h.a, k)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !msgLess(&h.a[i], &h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

// pop removes the smallest event and rebuilds the msg that was pushed.
func (h *msgHeap) pop() msg {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		first := i<<2 + 1
		if first >= last {
			break
		}
		best := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if msgLess(&h.a[c], &h.a[best]) {
				best = c
			}
		}
		if !msgLess(&h.a[best], &h.a[i]) {
			break
		}
		h.a[i], h.a[best] = h.a[best], h.a[i]
		i = best
	}
	if top.kind.timer() {
		return msg{at: top.at, origin: top.origin, oseq: top.oseq, from: top.origin, to: top.origin, c: top.ref, kind: top.kind}
	}
	h.free = append(h.free, top.ref)
	return h.slab[top.ref]
}

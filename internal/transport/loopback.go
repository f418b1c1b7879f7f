package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// LoopbackConfig describes an in-process network.
type LoopbackConfig struct {
	// DelayMS gives the virtual one-way delay charged on each delivery from
	// host a to host b (nil = zero delay). A measured ping RTT is the sum of
	// both legs, so realizing a simulated latency d(a,b) means returning
	// d(a,b)/2 here.
	DelayMS func(a, b int) float64
	// Faults gates every message through internal/faults' stateless
	// per-message verdicts: loss and duplication are a pure hash of
	// (seed, link, per-link sequence number), so a seeded run reproduces the
	// identical fault schedule on every repetition. Nil means perfect links.
	Faults *faults.Injector
	// Queue is the per-endpoint receive buffer (default 1024). A full queue
	// drops the message — datagram semantics, counted in Stats.Overflows.
	Queue int
}

// Drop records one message the fault gate removed. The slice of all drops is
// the run's fault schedule; comparing it across seeded runs is how the live
// determinism tests pin reproducibility.
type Drop struct {
	// Src and Dst are the message's endpoints.
	Src, Dst int
	// Seq is the per-link delivery attempt index the verdict hashed.
	Seq uint64
	// Reason classifies the drop.
	Reason faults.Reason
}

// LoopbackStats tallies delivery outcomes.
type LoopbackStats struct {
	// Sent counts Send calls that passed the fault gate's loss check.
	Sent uint64
	// Delivered counts messages enqueued on a receiver (duplicates count).
	Delivered uint64
	// Dropped counts fault-gate losses (the length of the drop log).
	Dropped uint64
	// Dups counts fault-injected duplicate deliveries.
	Dups uint64
	// NoEndpoint counts messages addressed to hosts with no open endpoint —
	// datagrams to dead machines vanish, as on a real network.
	NoEndpoint uint64
	// Overflows counts messages dropped on a full receive queue.
	Overflows uint64
}

// Loopback is the in-process Network: deterministic, instantaneous, with
// virtual delays and seeded faults. It is safe for concurrent use; fault
// verdicts stay reproducible because they hash per-link sequence numbers,
// which each sender's traffic orders deterministically.
//
// Which lock guards what: DESIGN.md §10 "Transport locking".
type Loopback struct {
	cfg   LoopbackConfig
	start time.Time

	mu    sync.RWMutex // write side: Open and close only
	eps   map[int]*loopEndpoint
	links map[int]*linkSeqs // by sending host; empty without an injector

	dropMu sync.Mutex
	drops  []Drop

	sent, delivered, dropped, dups, noEndpoint, overflows atomic.Uint64

	// obs instruments, network-wide totals (a nil *obs.Counter is a no-op).
	obsOverflows atomic.Pointer[obs.Counter]
	obsDropped   atomic.Pointer[obs.Counter]
}

// linkSeqs is one sending host's per-destination delivery-attempt counters.
// It belongs to the Loopback, not to the endpoint, so a host that closes and
// reopens continues its sequences — the fault schedule of a link does not
// restart when chaos recovers a host mid-run. The mutex is the table's own
// rather than the endpoint's because a send still in flight on the closed
// endpoint may overlap the first sends of its successor.
type linkSeqs struct {
	mu   sync.Mutex
	next map[int]uint64 // by destination host
}

// NewLoopback builds an empty in-process network.
func NewLoopback(cfg LoopbackConfig) *Loopback {
	if cfg.Queue <= 0 {
		cfg.Queue = 1024
	}
	return &Loopback{
		cfg:   cfg,
		start: time.Now(),
		eps:   make(map[int]*loopEndpoint),
		links: make(map[int]*linkSeqs),
	}
}

// Open attaches host. Reopening a host after its endpoint closed models a
// rejoin; opening it twice concurrently is an error.
func (l *Loopback) Open(host int) (Endpoint, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.eps[host]; dup {
		return nil, fmt.Errorf("transport: loopback host %d already open", host)
	}
	ep := &loopEndpoint{net: l, host: host, recv: make(chan Inbound, l.cfg.Queue)}
	if l.cfg.Faults != nil {
		if ep.links = l.links[host]; ep.links == nil {
			ep.links = &linkSeqs{next: make(map[int]uint64)}
			l.links[host] = ep.links
		}
	}
	l.eps[host] = ep
	return ep, nil
}

// SetInstruments attaches obs counters for mailbox overflows and fault-gate
// drops. Totals aggregate across endpoints; per-endpoint overflow counts
// stay available through the endpoint's Counters. Nil counters keep the
// zero-cost disabled path.
func (l *Loopback) SetInstruments(overflows, dropped *obs.Counter) {
	l.obsOverflows.Store(overflows)
	l.obsDropped.Store(dropped)
}

// Drops returns a copy of the fault schedule so far. Per link (Src, Dst) the
// drops appear in ascending Seq order. The order across links is the order
// in which senders reached the log: a pure function of the traffic when one
// goroutine sends (or sends are causally chained, as in a ping-pong), and
// scheduling-dependent under concurrent senders — sort by (Src, Dst, Seq) to
// compare two such runs.
func (l *Loopback) Drops() []Drop {
	l.dropMu.Lock()
	defer l.dropMu.Unlock()
	return append([]Drop(nil), l.drops...)
}

// Stats returns the delivery tallies so far. Each field is read atomically;
// the struct as a whole is exact once traffic has quiesced, and under
// traffic may catch a send between two of its increments (Sent counted, its
// Delivered not yet).
func (l *Loopback) Stats() LoopbackStats {
	return LoopbackStats{
		Sent:       l.sent.Load(),
		Delivered:  l.delivered.Load(),
		Dropped:    l.dropped.Load(),
		Dups:       l.dups.Load(),
		NoEndpoint: l.noEndpoint.Load(),
		Overflows:  l.overflows.Load(),
	}
}

// nowMS positions time-windowed faults (partitions, link outages) on the
// wall clock since the network's creation. Seq-hashed faults (loss, dup,
// jitter) do not consult it, so determinism holds wherever it matters.
func (l *Loopback) nowMS() float64 {
	return float64(time.Since(l.start)) / float64(time.Millisecond)
}

// gate runs one message of from's through the fault injector: it draws the
// link's next sequence number, hashes the verdict and logs a loss. The
// sender's table lock is held across all three, so a link's drops reach the
// log in Seq order whichever of the host's goroutines sent them.
func (l *Loopback) gate(from *loopEndpoint, to int) faults.Delivery {
	ls := from.links
	ls.mu.Lock()
	defer ls.mu.Unlock()
	seq := ls.next[to]
	ls.next[to] = seq + 1
	verdict := l.cfg.Faults.DeliverStateless(from.host, to, seq, l.nowMS())
	if verdict.Lost {
		l.dropMu.Lock()
		l.drops = append(l.drops, Drop{Src: from.host, Dst: to, Seq: seq, Reason: verdict.Reason})
		l.dropMu.Unlock()
		l.dropped.Add(1)
		l.obsDropped.Load().Inc()
	}
	return verdict
}

// send runs one message through the fault gate and delivers it. Called with
// from's identity already stamped. Without an injector there is no verdict
// to draw: no sequence number is kept and the clock is not read. It holds
// mu.RLock from the lookup to the (non-blocking) enqueue so close cannot
// close recv under it.
func (l *Loopback) send(from *loopEndpoint, to int, m Message) {
	var verdict faults.Delivery
	if l.cfg.Faults != nil {
		if verdict = l.gate(from, to); verdict.Lost {
			return
		}
	}
	l.sent.Add(1)

	l.mu.RLock()
	defer l.mu.RUnlock()
	dst, ok := l.eps[to]
	if !ok {
		l.noEndpoint.Add(1)
		return
	}
	delay := verdict.DelayMS
	if l.cfg.DelayMS != nil {
		delay += l.cfg.DelayMS(from.host, to)
	}
	in := Inbound{Msg: m, DelayMS: delay, Virtual: true}
	copies := 1
	if verdict.Dup {
		copies = 2
		l.dups.Add(1)
	}
	for i := 0; i < copies; i++ {
		select {
		case dst.recv <- in:
			l.delivered.Add(1)
		default:
			// Bounded mailbox: a receiver that is not draining sheds the
			// message here — datagram semantics, same as the UDP endpoint.
			l.overflows.Add(1)
			dst.overflows.Add(1)
			l.obsOverflows.Load().Inc()
		}
	}
}

// close detaches ep; subsequent sends to its host vanish.
func (l *Loopback) close(ep *loopEndpoint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.eps[ep.host] == ep {
		delete(l.eps, ep.host)
		close(ep.recv)
	}
}

type loopEndpoint struct {
	net   *Loopback
	host  int
	recv  chan Inbound
	links *linkSeqs // the host's sequence table; nil without an injector

	overflows atomic.Uint64

	mu     sync.Mutex
	closed bool
}

// Host returns the host ID this endpoint answers for.
func (ep *loopEndpoint) Host() int { return ep.host }

// Counters snapshots the endpoint's delivery-failure accounting (only
// Overflows applies on the loopback; the socket-level fields stay zero).
func (ep *loopEndpoint) Counters() Counters {
	return Counters{Overflows: ep.overflows.Load()}
}

// Send transmits m to host to with datagram semantics.
func (ep *loopEndpoint) Send(to int, m Message) error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return fmt.Errorf("transport: send on closed loopback endpoint %d", ep.host)
	}
	ep.mu.Unlock()
	m.Src, m.Dst = ep.host, to
	// The loopback carries Messages natively, but every frame must still be
	// wire-legal: encode (validating), and hand the receiver the decoded
	// copy so aliasing bugs (shared Path/Body backing arrays) cannot leak
	// between sender and receiver. Decode copies Path and Body out of the
	// frame, so nothing delivered aliases the pooled buffer.
	bp := frames.Get().(*[]byte)
	defer frames.Put(bp)
	var err error
	if *bp, err = appendEncode((*bp)[:0], m); err != nil {
		return err
	}
	dm, err := Decode(*bp)
	if err != nil {
		return fmt.Errorf("transport: loopback round-trip: %v", err)
	}
	ep.net.send(ep, to, dm)
	return nil
}

// Recv returns the delivery channel.
func (ep *loopEndpoint) Recv() <-chan Inbound { return ep.recv }

// Close detaches the endpoint; idempotent.
func (ep *loopEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	ep.mu.Unlock()
	ep.net.close(ep)
	return nil
}

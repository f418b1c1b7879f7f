package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
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
	// The loopback keeps no clock, so an injector with a partition window
	// is refused; cut the network by decorating its endpoints instead.
	Faults *faults.Injector
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
	// Delivered counts messages handed to a receiver (duplicates count).
	Delivered uint64
	// Dropped counts fault-gate losses (the length of the drop log).
	Dropped uint64
	// Dups counts fault-injected duplicate deliveries.
	Dups uint64
	// NoEndpoint counts messages addressed to hosts with no open, served
	// endpoint — datagrams to dead machines vanish, as on a real network.
	NoEndpoint uint64
	// Overflows always reads 0 (no mailbox is left to overflow); the
	// benchmark harness still reads it.
	Overflows uint64
}

// Loopback is the in-process Network: deterministic, instantaneous, with
// virtual delays and seeded faults. It is safe for concurrent use; fault
// verdicts stay reproducible because they hash per-link sequence numbers,
// which each sender's traffic orders deterministically.
//
// Which lock guards what: DESIGN.md §10 "Transport locking".
type Loopback struct {
	cfg LoopbackConfig

	mu    sync.RWMutex // write side: Open and close only
	eps   map[int]*loopEndpoint
	links map[int]*linkSeqs // by sending host; empty without an injector

	dropMu sync.Mutex
	drops  []Drop

	sent, delivered, dropped, dups, noEndpoint atomic.Uint64
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

// NewLoopback builds an empty in-process network. It panics on an injector
// with a partition window, which it has no clock to place.
func NewLoopback(cfg LoopbackConfig) *Loopback {
	if cfg.Faults.Windowed() {
		panic("transport: the loopback keeps no clock for a partition window")
	}
	return &Loopback{
		cfg:   cfg,
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
	ep := &loopEndpoint{net: l, host: host}
	if l.cfg.Faults != nil {
		if ep.links = l.links[host]; ep.links == nil {
			ep.links = &linkSeqs{next: make(map[int]uint64)}
			l.links[host] = ep.links
		}
	}
	l.eps[host] = ep
	return ep, nil
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
	}
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
	verdict := l.cfg.Faults.DeliverStateless(from.host, to, seq, 0) // no window: no time
	if verdict.Lost {
		l.dropMu.Lock()
		l.drops = append(l.drops, Drop{Src: from.host, Dst: to, Seq: seq, Reason: verdict.Reason})
		l.dropMu.Unlock()
		l.dropped.Add(1)
	}
	return verdict
}

// send runs one message through the fault gate and delivers it, once or,
// duplicated, twice; m is validated and stamped with from's identity.
// Without an injector there is no verdict to draw: no sequence number is
// kept. mu.RLock covers the lookup only — the receiver may send (a pong
// does), and a nested RLock would deadlock once Open or close waits on the
// write side.
func (l *Loopback) send(from *loopEndpoint, to int, m Message) {
	var verdict faults.Delivery
	if l.cfg.Faults != nil {
		if verdict = l.gate(from, to); verdict.Lost {
			return
		}
	}
	l.sent.Add(1)

	l.mu.RLock()
	dst := l.eps[to]
	l.mu.RUnlock()
	var recv *func(Inbound)
	if dst != nil && !dst.closed.Load() {
		recv = dst.recv.Load()
	}
	if recv == nil || *recv == nil {
		l.noEndpoint.Add(1)
		return
	}
	delay := verdict.DelayMS
	if l.cfg.DelayMS != nil {
		delay += l.cfg.DelayMS(from.host, to)
	}
	if verdict.Dup {
		l.dups.Add(1)
		l.deliver(*recv, m, delay)
	}
	l.deliver(*recv, m, delay)
}

// deliver calls recv with m, lending its Path and Body in a pooled buffer
// (never the sender's) that it poisons when recv returns: a receiver that
// kept them reads −1 slots and 0xFF bytes (a pong body: a NaN RTT).
func (l *Loopback) deliver(recv func(Inbound), m Message, delay float64) {
	l.delivered.Add(1)
	if len(m.Path) == 0 && len(m.Body) == 0 {
		m.Path, m.Body = nil, nil // not even the sender's spare capacity
		recv(Inbound{Msg: m, DelayMS: delay})
		return
	}
	d := deliveries.Get().(*Message)
	recv(Inbound{Msg: m.CopyInto(&d.Path, &d.Body), DelayMS: delay})
	for i := range d.Path {
		d.Path[i] = -1
	}
	for i := range d.Body {
		d.Body[i] = 0xFF
	}
	deliveries.Put(d)
}

// deliveries recycles deliver's buffers: a Message's Path and Body.
var deliveries = sync.Pool{New: func() any { return new(Message) }}

// close detaches ep; subsequent sends to its host vanish.
func (l *Loopback) close(ep *loopEndpoint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.eps[ep.host] == ep {
		delete(l.eps, ep.host)
	}
}

type loopEndpoint struct {
	net    *Loopback
	host   int
	recv   atomic.Pointer[func(Inbound)] // the receiver; none until Serve
	links  *linkSeqs                     // the host's sequence table; nil without an injector
	closed atomic.Bool                   // Close was called: Send errors, deliveries vanish
}

// Host returns the host ID this endpoint answers for.
func (ep *loopEndpoint) Host() int { return ep.host }

// Send transmits m to host to with datagram semantics.
func (ep *loopEndpoint) Send(to int, m Message) error {
	if ep.closed.Load() {
		return fmt.Errorf("transport: send on closed loopback endpoint %d", ep.host)
	}
	if err := validate(m); err != nil {
		return err
	}
	m.Src, m.Dst = ep.host, to
	ep.net.send(ep, to, m)
	return nil
}

// Serve installs the endpoint's receiver.
func (ep *loopEndpoint) Serve(f func(Inbound)) { ep.recv.Store(&f) }

// Close detaches the endpoint; idempotent.
func (ep *loopEndpoint) Close() error {
	if !ep.closed.Swap(true) {
		ep.net.close(ep)
	}
	return nil
}

package transport

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
)

// Node wraps an Endpoint with the message discipline every live PROP peer
// needs: a receiver that answers pings and dispatches inbound traffic, and
// request/response calls that complete by callback, with per-attempt
// deadlines, bounded retransmission with exponential back-off, and
// sequence-number matching that absorbs duplicate and stale replies. The
// deadlines are timers of the node's clock.
type Node struct {
	ep    Endpoint
	clock event.Clock // the deadlines'; nil: wall timers of their own

	// mu guards pending, answered and the state of every record in pending;
	// the recycling argument of Call rests on it. Nothing holds it while
	// sending or running a call's done.
	mu       sync.Mutex
	pending  map[uint64]*call
	answered uint64      // the seq of the last call a reply completed
	closed   atomic.Bool // set under mu: no Call registers after it
	handler  atomic.Pointer[func(Inbound)]

	seq  atomic.Uint64
	once sync.Once

	// The liveness machinery at work: TPing calls issued, call attempts
	// that expired, retransmissions after a timeout, replies that arrived
	// after their call gave up (the live stale-timer race, absorbed not
	// re-processed), and second copies of the last answered call's reply.
	pings        atomic.Uint64
	timeouts     atomic.Uint64
	retries      atomic.Uint64
	staleReplies atomic.Uint64
	dupReplies   atomic.Uint64
}

// NewNode serves ep with the node's receiver, its call deadlines on wall
// timers. Close the node, not the endpoint.
func NewNode(ep Endpoint) *Node { return NewNodeOn(ep, nil) }

// NewNodeOn is NewNode with the call deadlines on clock's timers (wall
// timers, each firing on a goroutine of its own, when clock is nil).
func NewNodeOn(ep Endpoint, clock event.Clock) *Node {
	n := &Node{ep: ep, clock: clock, pending: make(map[uint64]*call)}
	ep.Serve(n.dispatch)
	return n
}

// Handle installs the handler for inbound traffic the node does not consume
// itself (everything but TPing and matched replies). The handler runs on
// the sender's goroutine, on many at once: it must not block, or the sender
// stalls — a handler that needs a round trip makes a Call and goes on in
// its done — and it copies what it keeps of its lent Inbound. A nil h
// uninstalls the handler: such traffic is dropped again.
func (n *Node) Handle(h func(Inbound)) { n.handler.Store(&h) }

// Send transmits a one-way message (no response matching).
func (n *Node) Send(to int, m Message) error { return n.ep.Send(to, m) }

// Close fails every pending call, in the order the calls were made,
// running each one's done once with an error, and closes the endpoint; a
// delivery that races it is dropped. Idempotent.
func (n *Node) Close() {
	n.once.Do(func() {
		n.mu.Lock()
		n.closed.Store(true)
		err := fmt.Errorf("transport: node %d closed during a call", n.ep.Host())
		pending := make([]*call, 0, len(n.pending))
		for _, c := range n.pending {
			pending = append(pending, c)
		}
		slices.SortFunc(pending, func(a, b *call) int { return cmp.Compare(a.seq, b.seq) })
		failed := make([]func(Inbound, error), 0, len(pending))
		for _, c := range pending {
			if done, free := n.settle(c, Inbound{}, err); done != nil {
				failed = append(failed, done)
				if free {
					c.recycle()
				}
			}
		}
		n.mu.Unlock()
		n.ep.Close()
		for _, done := range failed {
			done(Inbound{}, err)
		}
	})
}

// delays recycles pong bodies: dispatch runs on many goroutines at once,
// and a buffer on its stack would escape through Endpoint.Send.
var delays = sync.Pool{New: func() any { return new([8]byte) }}

// dispatch is the node's receiver: the endpoint calls it on the sender's
// goroutine. Its only lock is the reply match: pings are answered and
// handler traffic dispatched without one.
func (n *Node) dispatch(in Inbound) {
	if n.closed.Load() {
		return
	}
	switch in.Msg.Type {
	case TPing:
		// Echo Seq/Key/Epoch; the body carries the observed one-way
		// delay so the origin can sum a virtual RTT without sleeping.
		b := delays.Get().(*[8]byte)
		_ = n.ep.Send(in.Msg.Src, Message{
			Type:  TPong,
			Seq:   in.Msg.Seq,
			Key:   in.Msg.Key,
			Epoch: in.Msg.Epoch,
			Body:  putDelay(b[:], in.DelayMS),
		})
		delays.Put(b)
	case TPong, TWalkReply, TMeasureReply:
		n.mu.Lock()
		c := n.pending[in.Msg.Seq]
		if c == nil {
			if in.Msg.Seq == n.answered {
				n.dupReplies.Add(1)
			} else {
				n.staleReplies.Add(1)
			}
			n.mu.Unlock()
			return
		}
		n.answered = in.Msg.Seq
		done, free := n.settle(c, in, nil)
		n.mu.Unlock()
		if free {
			c.recycle()
		}
		if done != nil {
			done(in, nil)
		}
	default:
		if h := n.handler.Load(); h != nil && *h != nil {
			(*h)(in)
		}
	}
}

// call is the record of one pending Call. Records are recycled through
// calls, each with its timer, made once, on the clock of the first node to
// use it, to run expire, and re-armed per attempt. Three holders may use a
// record outside Node.mu: the pending map, a transmission under way
// (sending) and an armed timer or its expire (armed); whichever drops the
// last one recycles it. An outcome that
// settles the call during a transmission waits in the record, a copy, until
// Send returns, so done never runs while Send may still read m.
type call struct {
	n        *Node
	clock    event.Clock // timer's
	timer    event.Timer
	seq      uint64
	to       int
	m        Message
	deadline event.Time // of the current attempt
	attempt  int        // transmissions so far
	retries  int
	done     func(Inbound, error)
	in       Inbound // the outcome settled during a transmission
	path     []int   // in's Path and Body, kept past their delivery
	body     []byte
	err      error
	sending  bool
	armed    bool
}

var calls = sync.Pool{New: func() any { return new(call) }}

func (c *call) recycle() {
	c.n, c.m, c.done, c.in, c.err = nil, Message{}, nil, Inbound{}, nil
	calls.Put(c)
}

// Call sends m to host to and runs done once with the matching reply, or
// with an error once the call failed. Each attempt gets a deadline, the
// first timeoutMS milliseconds; a lost exchange retransmits up to retries
// times with the deadline doubling per attempt (exponential back-off). The
// same sequence number is reused across retransmissions, so a late reply to
// an earlier attempt still completes the call, and replies arriving after
// completion are absorbed. Call returns at once; done never runs under Node.mu, but it may
// run before Call returns (the loopback answers a loss-free call inside
// Send), so a caller holds no lock across Call. m's Path and Body must stay
// unchanged until done runs: retransmissions send them again. The reply's
// Path and Body are done's only until it returns, as a delivery's are.
//
// The call's record is pooled. Recycling it is safe because every holder
// drops its hold under n.mu and the last one recycles: once settle took the
// record out of pending no reply can reach it (DESIGN.md §10 "Transport
// locking").
func (n *Node) Call(to int, m Message, timeoutMS float64, retries int, done func(Inbound, error)) {
	if !(timeoutMS > 0) {
		done(Inbound{}, fmt.Errorf("transport: call needs a positive timeout"))
		return
	}
	if m.Type == TPing {
		n.pings.Add(1)
	}
	c := calls.Get().(*call)
	if c.timer == nil || c.clock != n.clock {
		c.clock, c.timer = n.clock, event.NewTimer(n.clock, c.expire)
	}
	c.n, c.to, c.m, c.deadline, c.attempt, c.retries, c.done = n, to, m, event.Time(timeoutMS), 0, retries, done
	c.seq = n.seq.Add(1)
	c.m.Seq = c.seq
	n.mu.Lock()
	if n.closed.Load() {
		n.mu.Unlock()
		c.recycle()
		done(Inbound{}, fmt.Errorf("transport: node %d closed before call to %d", n.ep.Host(), to))
		return
	}
	n.pending[c.seq] = c
	c.sending = true
	n.mu.Unlock()
	n.transmit(c)
}

// transmit sends one attempt of c, then arms its deadline — or runs done,
// if the call settled meanwhile: a reply delivered inside Send arms no
// timer.
func (n *Node) transmit(c *call) {
	c.attempt++
	err := n.ep.Send(c.to, c.m)
	n.mu.Lock()
	c.sending = false
	var in Inbound
	var done func(Inbound, error)
	if _, live := n.pending[c.seq]; !live {
		in, err, done = c.in, c.err, c.done
	} else if err != nil {
		done, _ = n.settle(c, in, err)
	} else {
		c.armed = true
		c.timer.Reset(c.deadline)
	}
	n.mu.Unlock()
	if done != nil {
		done(in, err) // in may be c's copy: recycle c after
		c.recycle()
	}
}

// expire is an attempt's deadline passing: retransmit with the deadline
// doubled, or fail the call once its retries are spent.
func (c *call) expire() {
	n := c.n
	n.mu.Lock()
	c.armed = false
	if _, live := n.pending[c.seq]; !live { // settled after the timer fired
		n.mu.Unlock()
		c.recycle()
		return
	}
	n.timeouts.Add(1)
	if c.attempt > c.retries {
		err := fmt.Errorf("transport: call %d→%d type %d timed out after %d attempts",
			n.ep.Host(), c.to, c.m.Type, c.attempt)
		done, _ := n.settle(c, Inbound{}, err)
		n.mu.Unlock()
		c.recycle()
		done(Inbound{}, err)
		return
	}
	n.retries.Add(1)
	c.deadline *= 2
	c.sending = true
	n.mu.Unlock()
	n.transmit(c)
}

// settle takes pending record c out of pending with its outcome. During a
// transmission it leaves the outcome in c for transmit and returns no done.
// Otherwise it stops c's timer and returns c's done and whether the caller
// now holds c alone and must recycle it. Caller holds n.mu.
func (n *Node) settle(c *call, in Inbound, err error) (func(Inbound, error), bool) {
	delete(n.pending, c.seq)
	if c.sending {
		c.in, c.err = in, err
		c.in.Msg = in.Msg.CopyInto(&c.path, &c.body)
		return nil, false
	}
	if c.armed && c.timer.Stop() {
		c.armed = false
	}
	done := c.done
	c.done = nil
	return done, !c.armed
}

// pong is a blocking Ping's hand-off: done, bound once per record, passes
// the outcome to the waiting caller.
type pong struct {
	ch   chan pongRTT
	done func(Inbound, error)
}

type pongRTT struct {
	rtt float64
	err error
}

var pongs = sync.Pool{New: func() any {
	p := &pong{ch: make(chan pongRTT, 1)}
	p.done = func(in Inbound, err error) {
		rtt, err := PongRTT(in, err)
		p.ch <- pongRTT{rtt, err}
	}
	return p
}}

// Ping measures the round-trip time to host to in milliseconds and waits
// for it: a ping Call and its PongRTT. Timeout and retries follow Call's
// retransmission discipline; a node on a clock nobody else advances (an
// event.Engine) waits for good on a lost ping.
func (n *Node) Ping(to int, timeout time.Duration, retries int) (float64, error) {
	p := pongs.Get().(*pong)
	n.Call(to, Message{Type: TPing}, float64(timeout)/float64(time.Millisecond), retries, p.done)
	r := <-p.ch
	pongs.Put(p)
	return r.rtt, r.err
}

// PongRTT reads a ping Call's outcome as the exact virtual RTT in
// milliseconds: the DelayMS of both legs summed, so no clock is read. A
// failed call, a pong without a well-formed delay body, or an RTT that is
// negative, NaN or infinite is an error, not a measurement.
func PongRTT(in Inbound, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	fwd, ok := decodeDelay(in.Msg.Body)
	rtt := fwd + in.DelayMS
	if !ok || !(rtt >= 0 && rtt <= math.MaxFloat64) {
		return 0, fmt.Errorf("transport: ping %d→%d: no finite virtual RTT (%v)", in.Msg.Dst, in.Msg.Src, rtt)
	}
	return rtt, nil
}

// putDelay frames a one-way delay observation into b[:8], the float64 bits
// big-endian, and returns it.
func putDelay(b []byte, delayMS float64) []byte {
	b = b[:8]
	binary.BigEndian.PutUint64(b, math.Float64bits(delayMS))
	return b
}

// decodeDelay parses a putDelay frame.
func decodeDelay(b []byte) (delayMS float64, ok bool) {
	if len(b) != 8 {
		return 0, false
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), true
}

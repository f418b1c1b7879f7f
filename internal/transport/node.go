package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Node wraps an Endpoint with the message discipline every live PROP peer
// needs: a receiver that answers pings and dispatches inbound traffic, and
// request/response calls with per-attempt deadlines, bounded retransmission
// with exponential back-off, and sequence-number matching that absorbs
// duplicate and stale replies.
type Node struct {
	ep Endpoint

	// mu guards pending, and dispatch hands a reply (Close a close notice)
	// into a call record while holding it — the recycling argument of Call
	// rests on that. Nothing holds it while sending.
	mu      sync.Mutex
	pending map[uint64]*call
	closed  atomic.Bool // set under mu: no Call registers after it
	handler atomic.Pointer[func(Inbound)]

	seq  atomic.Uint64
	once sync.Once

	// The liveness machinery at work: TPing requests issued, call attempts
	// that expired, retransmissions after a timeout, replies that arrived
	// after their call gave up or completed (the live stale-timer race,
	// absorbed not re-processed), and duplicates the seq guard absorbed.
	pings        atomic.Uint64
	timeouts     atomic.Uint64
	retries      atomic.Uint64
	staleReplies atomic.Uint64
	dupReplies   atomic.Uint64
}

// NewNode serves ep with the node's receiver. Close the node, not the
// endpoint.
func NewNode(ep Endpoint) *Node {
	n := &Node{
		ep:      ep,
		pending: make(map[uint64]*call),
	}
	ep.Serve(n.dispatch)
	return n
}

// Handle installs the handler for inbound traffic the node does not consume
// itself (everything but TPing and matched replies). The handler runs on
// the sender's goroutine, on many at once: it must not block, or the sender
// stalls — dispatch slow work (anything taking a lock or doing its own
// calls) to a goroutine. A nil h uninstalls the handler: such traffic is
// dropped again.
func (n *Node) Handle(h func(Inbound)) { n.handler.Store(&h) }

// Send transmits a one-way message (no response matching).
func (n *Node) Send(to int, m Message) error { return n.ep.Send(to, m) }

// Close fails pending calls and closes the endpoint; a delivery that
// races it is dropped. Idempotent.
func (n *Node) Close() {
	n.once.Do(func() {
		n.mu.Lock()
		n.closed.Store(true)
		for _, c := range n.pending {
			select {
			case c.ch <- Inbound{}: // the close notice: no wire message has type 0
			default: // a reply is already waiting
			}
		}
		n.mu.Unlock()
		n.ep.Close()
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
		// Hand over under n.mu — Call's recycling relies on it. The send
		// never blocks: room for one reply, a second is a duplicate.
		n.mu.Lock()
		if c := n.pending[in.Msg.Seq]; c == nil {
			n.staleReplies.Add(1)
		} else {
			select {
			case c.ch <- in:
			default:
				n.dupReplies.Add(1)
			}
		}
		n.mu.Unlock()
	default:
		if h := n.handler.Load(); h != nil && *h != nil {
			(*h)(in)
		}
	}
}

// call is the record of one in-flight Call: the channel dispatch hands the
// reply to and the timer of the current attempt. Records are recycled
// through calls; one at rest there has an empty channel and a stopped timer
// with a drained channel, which is the state Timer.Reset requires.
type call struct {
	ch    chan Inbound // capacity 1: the reply; later copies are duplicates
	timer *time.Timer
}

var calls = sync.Pool{New: func() any {
	// A fresh timer must not fire before its first Reset: give it the longest
	// deadline there is and stop it at once, so it never has.
	t := time.NewTimer(math.MaxInt64)
	t.Stop()
	return &call{ch: make(chan Inbound, 1), timer: t}
}}

// await returns the attempt's reply, or false once deadline d passed
// without one. A reply already in the record — the loopback answers a
// loss-free call inside Send — returns at once, no timer armed.
func (c *call) await(d time.Duration) (Inbound, bool) {
	select {
	case in := <-c.ch:
		return in, true
	default:
	}
	c.timer.Reset(d)
	select {
	case in := <-c.ch:
		// The timer was Reset in this attempt and its channel not read
		// since, so a false Stop means it fired and the tick is, or is about
		// to be, in the channel: the receive takes it under the asynchronous
		// timer channels the go 1.22 modules build with; under Go 1.23's
		// synchronous ones Stop returns true and discards the tick itself.
		if !c.timer.Stop() {
			<-c.timer.C
		}
		return in, true
	case <-c.timer.C:
		return Inbound{}, false
	}
}

// Call sends m to host to and waits for the matching reply. Each attempt
// gets deadline timeout; a lost exchange retransmits up to retries times
// with the deadline doubling per attempt (exponential back-off). The same
// sequence number is reused across retransmissions, so a late reply to an
// earlier attempt still completes the call — and replies arriving after
// completion are absorbed as stale.
//
// The call's record is pooled. Recycling it relies on dispatch handing over
// under n.mu and finish deleting under n.mu: after the delete no reply can
// reach the record (DESIGN.md §10 "Transport locking").
func (n *Node) Call(to int, m Message, timeout time.Duration, retries int) (Inbound, error) {
	if timeout <= 0 {
		return Inbound{}, fmt.Errorf("transport: call needs a positive timeout")
	}
	seq := n.seq.Add(1)
	m.Seq = seq
	c := calls.Get().(*call)
	n.mu.Lock()
	if n.closed.Load() {
		n.mu.Unlock()
		calls.Put(c)
		return Inbound{}, fmt.Errorf("transport: node %d closed before call to %d", n.ep.Host(), to)
	}
	n.pending[seq] = c
	n.mu.Unlock()
	defer n.finish(seq, c)

	deadline := timeout
	for attempt := 0; ; attempt++ {
		if err := n.ep.Send(to, m); err != nil {
			return Inbound{}, err
		}
		if in, ok := c.await(deadline); ok {
			if in.Msg.Type == 0 {
				return Inbound{}, fmt.Errorf("transport: node %d closed during call to %d", n.ep.Host(), to)
			}
			return in, nil
		}
		n.timeouts.Add(1)
		if attempt >= retries {
			return Inbound{}, fmt.Errorf("transport: call %d→%d type %d timed out after %d attempts",
				n.ep.Host(), to, m.Type, attempt+1)
		}
		n.retries.Add(1)
		deadline *= 2
	}
}

// finish retires the record of a returning Call. await leaves the timer
// stopped and drained; the reply channel is drained here, after
// the delete that cuts the record off from dispatch.
func (n *Node) finish(seq uint64, c *call) {
	n.mu.Lock()
	delete(n.pending, seq)
	n.mu.Unlock()
	select {
	case <-c.ch:
	default:
	}
	calls.Put(c)
}

// Ping measures the round-trip time to host to in milliseconds: the exact
// virtual RTT, the DelayMS of both legs summed, so no clock is read.
// Timeout and retries follow Call's retransmission discipline. An RTT that
// is negative, NaN or infinite, or a pong without a well-formed delay body,
// is an error, not a measurement.
func (n *Node) Ping(to int, timeout time.Duration, retries int) (float64, error) {
	n.pings.Add(1)
	in, err := n.Call(to, Message{Type: TPing}, timeout, retries)
	if err != nil {
		return 0, err
	}
	fwd, ok := decodeDelay(in.Msg.Body)
	rtt := fwd + in.DelayMS
	if !ok || !(rtt >= 0 && rtt <= math.MaxFloat64) {
		return 0, fmt.Errorf("transport: ping %d→%d: no finite virtual RTT (%v)", n.ep.Host(), to, rtt)
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

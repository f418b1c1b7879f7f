// Package transport is the messaging layer of the live PROP runtime: a
// small datagram abstraction with a binary wire codec, delivery by a call
// of the receiver's function, request/response calls with deadlines and
// bounded retransmission, and per-link fault hooks.
//
// Loopback is the one network: an in-process transport whose deliveries
// are instantaneous but carry a *virtual* one-way delay (the sim's latency
// model realized as transport metadata) and whose fault verdicts come from
// internal/faults' stateless per-message hash — so a seeded loopback run
// drops the same messages on every repetition, which is what lets the
// dhttest conformance suites and figR-style loss scenarios reproduce
// deterministically outside the simulator. Endpoint and Network stay
// interfaces so callers can decorate them (meter sends, drop a host's
// traffic).
//
// The protocols above this package (internal/propnode, the dhttest live
// backend) address peers by host ID: the slot/host model's host
// identifiers are the addresses.
//
// Each delivery failure is counted in one place, LoopbackStats: fault-gate
// drops and sends to absent, closed or unserved hosts.
//
// The per-message paths recycle their frames and call records and share no
// exclusive lock between senders; DESIGN.md §10 "Transport locking" states
// which lock guards what and why a retired call record is safe to reuse.
//
// Key types: Message and its codec (Encode/Decode), Endpoint/Network,
// Loopback, and Node (the receiver that answers pings, with Ping/Call). See
// DESIGN.md §10.
package transport

// Type discriminates wire messages.
type Type uint8

const (
	// TPing requests an echo; a Node answers it with a TPong carrying the
	// observed one-way delay so virtual RTTs can be summed without sleeping.
	TPing Type = 1 + iota
	// TPong answers a TPing, echoing its Seq/Key/Epoch.
	TPong
	// TWalk is one hop of a PROP probing random walk: Path holds the slots
	// visited so far, TTL the hops remaining, Key the origin host to reply to.
	TWalk
	// TWalkReply closes a walk back to its origin: Path is the final walk
	// path, TTL 1 for success and 0 for a dead-ended walk.
	TWalkReply
	// TMeasure asks the receiving node to ping a list of hosts and report
	// the RTTs — the "each side probes its own neighborhood" measurement RPC
	// of the exchange evaluation (§4.3). Its Body lists the hosts in the
	// order to ping them, 8 bytes each (int64, big-endian).
	TMeasure
	// TMeasureReply answers a TMeasure: its Body holds one RTT per host
	// measured (float64 bits, big-endian), in list order, up to the first
	// ping that failed. TTL 1 means the list was walked, 0 that it was
	// refused (empty, ragged or too long).
	TMeasureReply
	// TData carries an opaque payload for tooling and tests.
	TData

	maxType = TData
)

// Valid reports whether t is a known wire type.
func (t Type) Valid() bool { return t >= TPing && t <= maxType }

// Message is one wire datagram. All PROP live-runtime traffic fits this one
// fixed shape so the codec stays canonical (a given Message has exactly one
// encoding, which the fuzz harness exploits).
type Message struct {
	// Type discriminates the message.
	Type Type
	// TTL is the walk hop budget, or a one-bit success flag in replies.
	TTL uint8
	// Epoch guards against stale retransmit chains (the live analog of
	// the transaction number of internal/core's Cycle).
	Epoch uint32
	// Seq matches responses to requests; Node.Call assigns it.
	Seq uint64
	// Src and Dst are host IDs. Send stamps them; Decode range-checks them.
	Src, Dst int
	// Key is protocol-dependent: a DHT key, or the origin host of a walk.
	Key uint32
	// Path is the slot path of a walk (nil when absent).
	Path []int
	// Body is an opaque payload (nil when absent).
	Body []byte
}

// Inbound is one delivered message plus transport metadata.
type Inbound struct {
	// Msg is the decoded message.
	Msg Message
	// DelayMS is the virtual one-way delay the network charged this
	// delivery: the latency model's share plus any fault jitter.
	DelayMS float64
}

// Endpoint is one host's attachment to a network. A delivery is a call of
// the receiving endpoint's Serve function, made on the sending goroutine
// before Send returns. Implementations are safe for concurrent use.
type Endpoint interface {
	// Host returns the host ID this endpoint answers for.
	Host() int
	// Send transmits m to the host to. Delivery is best-effort datagram
	// semantics: messages to unknown or dead hosts vanish silently; only a
	// closed local endpoint errors. The endpoint must not
	// keep m, its Path or its Body after Send returns: callers reuse them.
	Send(to int, m Message) error
	// Serve installs f as the receiver of every later delivery; nil
	// uninstalls it. f runs on the senders' goroutines, on many at once, and
	// must neither block nor take a lock a sender may hold across Send.
	// A delivery with no receiver vanishes, like one to an absent host.
	Serve(f func(Inbound))
	// Close detaches the endpoint: later deliveries to it vanish.
	Close() error
}

// Network opens endpoints by host ID — the factory the runtime uses to
// bring nodes up (and, after churn, back up).
type Network interface {
	// Open attaches host to the network. Opening a host that already has a
	// live endpoint is an error.
	Open(host int) (Endpoint, error)
}

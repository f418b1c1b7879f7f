// Package transport is the messaging layer of the live PROP runtime: a
// small datagram abstraction with a binary wire codec, per-endpoint receive
// queues, request/response calls with deadlines and bounded retransmission,
// and per-link fault hooks.
//
// Two implementations ship. Loopback is an in-process network whose
// deliveries are instantaneous but carry a *virtual* one-way delay (the
// sim's latency model realized as transport metadata) and whose fault
// verdicts come from internal/faults' stateless per-message hash — so a
// seeded loopback run drops the same messages on every repetition, which is
// what lets the dhttest conformance suites and figR-style loss scenarios
// reproduce deterministically outside the simulator. UDP is the real thing:
// datagrams over the kernel on localhost or beyond, with wall-clock RTTs.
//
// The protocols above this package (internal/propnode, the dhttest live
// backend) address peers by host ID, never by socket: the slot/host model's
// host identifiers are the addresses, and each implementation maps them to
// its own notion of a wire endpoint.
//
// The per-message paths recycle their frames and call records and share no
// exclusive lock between senders; DESIGN.md §10 "Transport locking" states
// which lock guards what and why a retired call record is safe to reuse.
//
// Key types: Message and its codec (Encode/Decode), Endpoint/Network,
// Loopback, UDPEndpoint, and Node (the message pump with Ping/Call). See
// DESIGN.md §10.
package transport

// Type discriminates wire messages.
type Type uint8

const (
	// TPing requests an echo; the pump answers it with a TPong carrying the
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
	// TMeasure asks the receiving node to ping a third host and report the
	// RTT — the "each side probes its own neighborhood" measurement RPC of
	// the exchange evaluation (§4.3).
	TMeasure
	// TMeasureReply reports a TMeasure result in its Body (codecDelay
	// framing); TTL 1 on success, 0 when the measurement timed out.
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
	// internal/core's nodeState.epoch).
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
	// DelayMS is the virtual one-way delay the loopback charged this
	// delivery (0 on UDP, where real time elapses instead).
	DelayMS float64
	// Virtual reports that DelayMS is authoritative — the loopback's
	// simulated-latency plane — rather than real elapsed time.
	Virtual bool
}

// Endpoint is one host's attachment to a network. Send never blocks on the
// receiver; Recv is a channel closed by Close. Implementations are safe for
// concurrent use.
type Endpoint interface {
	// Host returns the host ID this endpoint answers for.
	Host() int
	// Send transmits m to the host to. Delivery is best-effort datagram
	// semantics: messages to unknown or dead hosts vanish silently, exactly
	// like UDP; only a closed local endpoint errors.
	Send(to int, m Message) error
	// Recv returns the delivery channel. It is closed when the endpoint
	// closes.
	Recv() <-chan Inbound
	// Close detaches the endpoint and closes its Recv channel.
	Close() error
}

// Network opens endpoints by host ID — the factory the runtime uses to
// bring nodes up (and, after churn, back up).
type Network interface {
	// Open attaches host to the network. Opening a host that already has a
	// live endpoint is an error.
	Open(host int) (Endpoint, error)
}

package dhttest

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/transport"
)

// LiveConfig parameterizes a LiveLatency measurement plane.
type LiveConfig struct {
	// DelayMS is the virtual one-way delay the loopback charges per leg.
	// Realizing a target latency model d means d/2 here, so both legs of a
	// ping sum back to d float-exactly. Nil means zero delay.
	DelayMS func(a, b int) float64
	// Faults seeds the loopback's per-message fault gate (nil = perfect).
	Faults *faults.Injector
	// Timeout is the first-attempt ping deadline (default 50ms; later
	// attempts double it).
	Timeout time.Duration
	// Retries bounds retransmissions per ping (default 8).
	Retries int
}

// LiveLatency is the live backend's latency plane: an overlay.LatencyFunc
// whose answers come from real TPing round trips over the loopback
// transport instead of an oracle lookup. Endpoints open lazily on first
// use, measured RTTs are cached per directed pair (so the substrates'
// many repeat queries cost one ping each), and all faults flow through the
// loopback's deterministic per-link schedule.
//
// It is the seam that lets the dhttest conformance battery run unchanged
// against a live message-passing runtime: membership stays substrate-owned,
// only the measurement plane swaps.
type LiveLatency struct {
	cfg LiveConfig
	lb  *transport.Loopback

	mu    sync.Mutex
	nodes map[int]*transport.Node
	cache map[[2]int]float64
}

// NewLiveLatency builds the plane over a fresh loopback network.
func NewLiveLatency(cfg LiveConfig) *LiveLatency {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 50 * time.Millisecond
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 8
	}
	return &LiveLatency{
		cfg:   cfg,
		lb:    transport.NewLoopback(transport.LoopbackConfig{DelayMS: cfg.DelayMS, Faults: cfg.Faults}),
		nodes: make(map[int]*transport.Node),
		cache: make(map[[2]int]float64),
	}
}

// Lat is the overlay.LatencyFunc: RTT from hostA to hostB measured over the
// transport. Panics if the network loses every retransmission of a probe —
// with the retry budget that means the link is administratively dead, which
// no latency oracle can answer for.
func (l *LiveLatency) Lat(hostA, hostB int) float64 {
	if hostA == hostB {
		return 0
	}
	l.mu.Lock()
	if rtt, ok := l.cache[[2]int{hostA, hostB}]; ok {
		l.mu.Unlock()
		return rtt
	}
	a := l.nodeLocked(hostA)
	l.nodeLocked(hostB)
	l.mu.Unlock()

	rtt, err := a.Ping(hostB, l.cfg.Timeout, l.cfg.Retries)
	if err != nil {
		panic(fmt.Sprintf("dhttest: live RTT probe %d→%d: %v", hostA, hostB, err))
	}
	l.mu.Lock()
	l.cache[[2]int{hostA, hostB}] = rtt
	l.mu.Unlock()
	return rtt
}

// nodeLocked returns hostID's node, opening its endpoint on first use.
// Caller holds l.mu.
func (l *LiveLatency) nodeLocked(host int) *transport.Node {
	if n, ok := l.nodes[host]; ok {
		return n
	}
	ep, err := l.lb.Open(host)
	if err != nil {
		panic(fmt.Sprintf("dhttest: live endpoint for host %d: %v", host, err))
	}
	n := transport.NewNode(ep)
	l.nodes[host] = n
	return n
}

// Drops exposes the loopback's fault schedule — the artifact the
// determinism tests compare across seeded runs.
func (l *LiveLatency) Drops() []transport.Drop { return l.lb.Drops() }

// Stats exposes the loopback's delivery tallies.
func (l *LiveLatency) Stats() transport.LoopbackStats { return l.lb.Stats() }

// Close tears down every node.
func (l *LiveLatency) Close() {
	l.mu.Lock()
	nodes := make([]*transport.Node, 0, len(l.nodes))
	for _, n := range l.nodes {
		nodes = append(nodes, n)
	}
	l.nodes = make(map[int]*transport.Node)
	l.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
}

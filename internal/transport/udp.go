package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Read-error backoff: a persistent non-close error from ReadFromUDP (a
// revoked interface, an fd pushed into an error state) must not spin the
// read loop hot. Each consecutive error sleeps twice as long as the last,
// capped at readBackoffMax; after readErrorBudget consecutive errors the
// loop gives up and closes the endpoint — at that point the socket is not
// coming back, and a closed endpoint is the honest signal (callers see the
// Recv channel close, exactly as on Close).
const (
	readBackoffMin  = time.Millisecond
	readBackoffMax  = 250 * time.Millisecond
	readErrorBudget = 32
)

// UDPNetwork maps host IDs to UDP socket addresses. Each Open binds a real
// kernel socket on the configured interface; peers are introduced with
// AddPeer (the static bootstrap list of a two-process smoke test) and
// learned dynamically from the Src field of inbound traffic, so a reply
// never needs a pre-registered route.
type UDPNetwork struct {
	// BindIP is the interface to bind (default 127.0.0.1).
	BindIP string

	mu    sync.Mutex
	peers map[int]*net.UDPAddr
	eps   map[int]*UDPEndpoint

	// obs instruments, network-wide totals across endpoints (nil-safe).
	obsOverflows  *obs.Counter
	obsRebinds    *obs.Counter
	obsReadErrors *obs.Counter
}

// NewUDPNetwork builds a network binding sockets on bindIP ("" = loopback).
func NewUDPNetwork(bindIP string) *UDPNetwork {
	if bindIP == "" {
		bindIP = "127.0.0.1"
	}
	return &UDPNetwork{
		BindIP: bindIP,
		peers:  make(map[int]*net.UDPAddr),
		eps:    make(map[int]*UDPEndpoint),
	}
}

// SetInstruments attaches obs counters for mailbox overflows, peer address
// rebinds, and socket read errors. Totals aggregate across every endpoint
// the network opens; per-endpoint breakdowns stay available through
// UDPEndpoint.Counters. Nil counters (or never calling this) keep the
// zero-cost disabled path.
func (u *UDPNetwork) SetInstruments(overflows, rebinds, readErrors *obs.Counter) {
	u.mu.Lock()
	u.obsOverflows = overflows
	u.obsRebinds = rebinds
	u.obsReadErrors = readErrors
	u.mu.Unlock()
}

// instruments snapshots the obs counters under the lock.
func (u *UDPNetwork) instruments() (overflows, rebinds, readErrors *obs.Counter) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.obsOverflows, u.obsRebinds, u.obsReadErrors
}

// AddPeer registers the socket address of a host reachable on the wire.
func (u *UDPNetwork) AddPeer(host int, addr string) error {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: udp peer %d: %v", host, err)
	}
	u.mu.Lock()
	u.peers[host] = a
	u.mu.Unlock()
	return nil
}

// Addr returns the bound socket address of a locally opened host.
func (u *UDPNetwork) Addr(host int) (string, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	ep, ok := u.eps[host]
	if !ok {
		return "", false
	}
	return ep.conn.LocalAddr().String(), true
}

// Open binds a fresh UDP socket (port 0: kernel-assigned) for host and
// starts its read loop.
func (u *UDPNetwork) Open(host int) (Endpoint, error) { return u.OpenAt(host, 0) }

// OpenAt is Open on an explicit port — the well-known address a two-process
// deployment advertises (0 keeps the kernel-assigned behavior).
func (u *UDPNetwork) OpenAt(host, port int) (Endpoint, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, dup := u.eps[host]; dup {
		return nil, fmt.Errorf("transport: udp host %d already open", host)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(u.BindIP), Port: port})
	if err != nil {
		return nil, fmt.Errorf("transport: udp bind for host %d: %v", host, err)
	}
	ep := &UDPEndpoint{
		net:  u,
		host: host,
		conn: conn,
		recv: make(chan Inbound, 1024),
	}
	u.eps[host] = ep
	u.peers[host] = conn.LocalAddr().(*net.UDPAddr)
	ep.wg.Add(1)
	go ep.readLoop()
	return ep, nil
}

// lookup resolves a host to its last known socket address.
func (u *UDPNetwork) lookup(host int) *net.UDPAddr {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.peers[host]
}

// learn records the observed source address of host's traffic, so replies
// and future sends route without static configuration. The route only
// changes when the observed address actually differs from the recorded one
// — every datagram used to rewrite the entry unconditionally, which let any
// flapping (or spoofed) Src silently hijack a peer's route with nothing to
// show for it. Now an unchanged address is a no-op and learn reports
// whether an existing route was rebound, so flapping shows up in the
// AddrRebinds counter.
func (u *UDPNetwork) learn(host int, addr *net.UDPAddr) (rebound bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	old := u.peers[host]
	if old != nil && old.Port == addr.Port && old.Zone == addr.Zone && old.IP.Equal(addr.IP) {
		return false
	}
	u.peers[host] = addr
	return old != nil
}

// drop detaches a closed endpoint.
func (u *UDPNetwork) drop(ep *UDPEndpoint) {
	u.mu.Lock()
	if u.eps[ep.host] == ep {
		delete(u.eps, ep.host)
	}
	u.mu.Unlock()
}

// Counters is a transport endpoint's delivery-failure accounting: the
// events that datagram semantics would otherwise swallow without a trace.
// Snapshot via UDPEndpoint.Counters / Loopback endpoint Counters.
type Counters struct {
	// Overflows counts inbound messages dropped because the receive mailbox
	// was full. The mailbox is bounded (1024 deliveries): a receiver that
	// cannot drain the pump fast enough sheds load here, exactly like a
	// kernel socket buffer — senders are never blocked and never told.
	Overflows uint64
	// ReadErrors counts transient socket read failures survived by the
	// read loop's backoff (UDP only).
	ReadErrors uint64
	// AddrRebinds counts inbound datagrams whose Src rebound an existing
	// peer route to a new socket address (UDP only). A steadily climbing
	// value means a peer is flapping between addresses — or something is
	// spoofing its Src.
	AddrRebinds uint64
}

// UDPEndpoint is one host's kernel socket: frames go out as single
// datagrams, the read loop decodes inbound datagrams (dropping malformed
// ones) and learns peer addresses from their Src field. The receive mailbox
// is bounded; Counters reports what was shed.
type UDPEndpoint struct {
	net  *UDPNetwork
	host int
	conn *net.UDPConn
	recv chan Inbound

	overflows   atomic.Uint64
	readErrors  atomic.Uint64
	addrRebinds atomic.Uint64

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// Host returns the host ID this endpoint answers for.
func (ep *UDPEndpoint) Host() int { return ep.host }

// Counters snapshots the endpoint's delivery-failure accounting.
func (ep *UDPEndpoint) Counters() Counters {
	return Counters{
		Overflows:   ep.overflows.Load(),
		ReadErrors:  ep.readErrors.Load(),
		AddrRebinds: ep.addrRebinds.Load(),
	}
}

// Send encodes m and ships it as one datagram. Unknown destinations are
// datagram semantics: the message vanishes without error.
func (ep *UDPEndpoint) Send(to int, m Message) error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return fmt.Errorf("transport: send on closed udp endpoint %d", ep.host)
	}
	ep.mu.Unlock()
	m.Src, m.Dst = ep.host, to
	// WriteToUDP copies the frame into the kernel before it returns, so the
	// pooled buffer goes back on every path out of here.
	bp := frames.Get().(*[]byte)
	defer frames.Put(bp)
	var err error
	if *bp, err = appendEncode((*bp)[:0], m); err != nil {
		return err
	}
	addr := ep.net.lookup(to)
	if addr == nil {
		return nil
	}
	_, err = ep.conn.WriteToUDP(*bp, addr)
	if err != nil && !ep.isClosed() {
		return fmt.Errorf("transport: udp send %d→%d: %v", ep.host, to, err)
	}
	return nil
}

// Recv returns the delivery channel.
func (ep *UDPEndpoint) Recv() <-chan Inbound { return ep.recv }

// Close shuts the socket and read loop; idempotent (including after the
// read loop closed the endpoint itself on an exhausted error budget).
func (ep *UDPEndpoint) Close() error {
	ep.mu.Lock()
	already := ep.closed
	ep.closed = true
	ep.mu.Unlock()
	if !already {
		ep.conn.Close()
	}
	ep.wg.Wait()
	ep.net.drop(ep)
	return nil
}

func (ep *UDPEndpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

// giveUp closes the endpoint from inside the read loop after the read-error
// budget is exhausted. It must not wait on the loop's own WaitGroup; the
// loop returns right after, running the deferred recv close.
func (ep *UDPEndpoint) giveUp() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	ep.mu.Unlock()
	ep.conn.Close()
	ep.net.drop(ep)
}

func (ep *UDPEndpoint) readLoop() {
	defer ep.wg.Done()
	defer close(ep.recv)
	buf := make([]byte, 64*1024)
	backoff := readBackoffMin
	consecutive := 0
	for {
		n, from, err := ep.conn.ReadFromUDP(buf)
		if err != nil {
			if ep.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			ep.readErrors.Add(1)
			_, _, obsReadErrors := ep.net.instruments()
			obsReadErrors.Inc()
			consecutive++
			if consecutive >= readErrorBudget {
				ep.giveUp()
				return
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > readBackoffMax {
				backoff = readBackoffMax
			}
			continue
		}
		consecutive = 0
		backoff = readBackoffMin
		m, err := Decode(buf[:n])
		if err != nil {
			continue // malformed datagram: drop, as any UDP service must
		}
		if ep.net.learn(m.Src, from) {
			ep.addrRebinds.Add(1)
			_, obsRebinds, _ := ep.net.instruments()
			obsRebinds.Inc()
		}
		select {
		case ep.recv <- Inbound{Msg: m}:
		default:
			// Bounded mailbox: the receiver is not draining; shed the
			// datagram and account for it instead of blocking the socket.
			ep.overflows.Add(1)
			obsOverflows, _, _ := ep.net.instruments()
			obsOverflows.Inc()
		}
	}
}

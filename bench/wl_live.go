package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// liveSizes sizes live-loopback: goroutine agents over the in-process
// transport, run closed-loop until a fixed number of probe cycles is done.
type liveSizes struct {
	net       NetConfig
	agents    int
	probes    int // the fixed work at scale 1
	intervalM float64
	probeN    int
	deadline  time.Duration // a run still short of its probe target by then fails
}

var liveFrozen = liveSizes{net: TSLarge(), agents: 256, probes: 10000, intervalM: 1, probeN: 10000, deadline: 150 * time.Second}

type liveInstance struct {
	sz     liveSizes
	target uint64
	pw     *physWorld
	hosts  []int
	lb     *Loopback
	meter  *meteredNet // traced pass only
	rt     *Runtime

	startS, stopS float64
	lb0           LoopbackStats
	c0, c1        LiveCounters
	first, last   float64
	stopped       bool
	out           outcome
	queries0      uint64 // the traced world's oracle query count when the run began
}

// meteredNet decorates the transport.Network seam: every endpoint the
// runtime opens times its Send calls (traced pass only).
type meteredNet struct {
	inner  TransportNet
	busyNS atomic.Int64
}

type meteredEndpoint struct {
	Endpoint
	m *meteredNet
}

func (m *meteredNet) Open(host int) (Endpoint, error) {
	ep, err := m.inner.Open(host)
	if err != nil {
		return nil, err
	}
	return &meteredEndpoint{Endpoint: ep, m: m}, nil
}

func (e *meteredEndpoint) Send(to int, msg Message) error {
	t := time.Now()
	err := e.Endpoint.Send(to, msg)
	e.m.busyNS.Add(int64(time.Since(t)))
	return err
}

func setupLive(sz liveSizes) setupFunc {
	return func(seed uint64, scale float64, tr *tracer, root int) (instance, error) {
		in := &liveInstance{sz: sz, target: uint64(scaled(sz.probes, scale))}
		// Set-up generates the network and warms the oracle row of every
		// stub host.
		pw, err := newPhysWorld(sz.net, subSeed(seed, 0, 0), 0, tr, root, 0)
		if err != nil {
			return nil, err
		}
		in.pw = pw
		hosts := append([]int(nil), in.pw.hosts...)
		r := NewRand(subSeed(seed, 0, 1))
		r.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		if sz.agents < len(hosts) {
			hosts = hosts[:sz.agents]
		}
		in.hosts = hosts
		lat := in.pw.seam()
		// A ping's RTT is the sum of both legs, so half the oracle latency
		// per leg makes measured RTTs equal the simulator's latencies.
		in.lb = NewLoopback(LoopbackConfig{DelayMS: func(a, b int) float64 { return lat(a, b) / 2 }})
		var net TransportNet = in.lb
		if tr != nil {
			in.meter = &meteredNet{inner: in.lb}
			net = in.meter
		}
		in.rt = NewRuntime(net, LiveConfig{Policy: PROPG, ProbeIntervalMS: sz.intervalM, Lat: lat, Seed: subSeed(seed, 0, 2)})
		return in, nil
	}
}

func (in *liveInstance) meanLinkLatency() float64 {
	var m float64
	in.rt.View(func(o *Overlay) { m = o.MeanLinkLatency() })
	return m
}

func (in *liveInstance) arm(tr *tracer, root int) error {
	sp := tr.begin("propnode.start", root, 0)
	t0 := time.Now()
	err := in.rt.Start(in.hosts)
	in.startS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return err
	}
	in.first = in.meanLinkLatency()
	in.c0 = in.rt.Counters()
	in.lb0 = in.lb.Stats()
	in.queries0 = in.pw.counted()
	return nil
}

// run is a closed loop: each agent's next probe waits for its previous one,
// and the driver only watches the probe counter until the target is reached.
func (in *liveInstance) run(tr *tracer, root int) error {
	sp := tr.begin("propnode.run", root, 0)
	defer tr.end(sp)
	deadline := time.Now().Add(in.sz.deadline)
	for {
		in.c1 = in.rt.Counters()
		if in.c1.Probes-in.c0.Probes >= in.target {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d probes after %v", in.c1.Probes-in.c0.Probes, in.target, in.sz.deadline)
		}
		time.Sleep(2 * time.Millisecond)
	}
	in.last = in.meanLinkLatency()
	return nil
}

func (in *liveInstance) check() error {
	t0 := time.Now()
	in.rt.Stop()
	in.stopS = time.Since(t0).Seconds()
	o := in.rt.Overlay()
	if err := o.CheckInvariants(); err != nil { // slot↔host bijection
		return fmt.Errorf("overlay invariants after Stop: %w", err)
	}
	if !o.Connected() {
		return fmt.Errorf("overlay disconnected after Stop")
	}
	if o.NumAlive() != len(in.hosts) {
		return fmt.Errorf("%d live slots after Stop, started %d", o.NumAlive(), len(in.hosts))
	}
	return nil
}

func (in *liveInstance) outcome() outcome {
	// The probe cycles are the operations here: the driver asked for a fixed
	// number of them, and on a fault-free loopback no RTT measurement may
	// fail. WalkFailures lumps walks that timed out with walks that
	// dead-ended or raced a swap, which are protocol outcomes, so it lowers
	// success_share but is not a failed operation.
	in.out.ops = in.c1.Probes - in.c0.Probes
	in.out.opsFailed = in.c1.MeasureFailures - in.c0.MeasureFailures
	in.out.probesFailed = in.c1.WalkFailures - in.c0.WalkFailures
	in.out.quality = in.last / in.first
	return in.out
}

func (in *liveInstance) layers(tr *tracer) error {
	probeGraph(tr, in.pw.net.Graph)
	probeOracle(tr, in.pw)
	counted, computes := oracleCounts([]*physWorld{in.pw})
	oracleLayers(tr, counted-float64(in.queries0), 0, computes)

	probes := float64(in.c1.Probes - in.c0.Probes)
	exchanges := float64(in.c1.Exchanges - in.c0.Exchanges)
	lb := in.lb.Stats()
	sent := float64(lb.Sent - in.lb0.Sent)
	tr.set("transport.sent", sent)
	tr.set("transport.delivered", float64(lb.Delivered-in.lb0.Delivered))
	tr.set("transport.overflows", float64(lb.Overflows-in.lb0.Overflows))
	tr.set("transport.send_busy_s", float64(in.meter.busyNS.Load())/1e9)
	tr.set("overlay.swaps", exchanges)
	tr.set("propnode.start_s", in.startS)
	tr.set("propnode.stop_s", in.stopS)
	tr.set("propnode.probes", probes)
	tr.set("propnode.exchanges", exchanges)
	tr.set("propnode.exchange_yield", ratio(exchanges, probes))
	tr.set("propnode.walk_failures", float64(in.c1.WalkFailures-in.c0.WalkFailures))
	tr.set("propnode.measure_failures", float64(in.c1.MeasureFailures-in.c0.MeasureFailures))
	tr.set("propnode.heartbeats", float64(in.c1.Heartbeats-in.c0.Heartbeats))
	tr.set("propnode.cpu_us_per_probe", ratio(tr.get("bench.cpu_s")*1e6, probes))
	tr.set("propnode.alloc_kb_per_probe", ratio(tr.get("bench.alloc_mb")*1024, probes))
	tr.set("propnode.msgs_per_probe", ratio(sent, probes))
	if err := probeCodec(tr); err != nil {
		return err
	}
	return probeCall(tr, in.sz.probeN)
}

// probeCodec costs one Encode+Decode of a walk-sized message, in batches of
// 100 (one pair is below the clock's resolution).
func probeCodec(tr *tracer) error {
	msg := Message{Type: TData, TTL: 2, Epoch: 1, Seq: 12345, Src: 17, Dst: 42, Key: 7, Path: []int{3, 5}, Body: make([]byte, 16)}
	var firstErr error
	pair := func() {
		frame, err := Encode(msg)
		if err == nil {
			_, err = Decode(frame)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	const batch, batches = 100, 1000
	ns := timeBatch(batches, time.Nanosecond, func(int) {
		for i := 0; i < batch; i++ {
			pair()
		}
	})
	allocs := mallocs(func() {
		for i := 0; i < batch; i++ {
			pair()
		}
	})
	if firstErr != nil {
		return fmt.Errorf("codec probe: %w", firstErr)
	}
	tr.set("transport.codec_ns", median(ns)/batch)
	tr.set("transport.codec_allocs", allocs/batch)
	return nil
}

// probeCall costs one request/reply round trip: n closed-loop Node.Ping calls
// between two endpoints on a zero-delay loopback.
func probeCall(tr *tracer, n int) error {
	lb := NewLoopback(LoopbackConfig{})
	epA, err := lb.Open(1)
	if err != nil {
		return fmt.Errorf("call probe: %w", err)
	}
	a := NewNode(epA)
	defer a.Close()
	epB, err := lb.Open(2)
	if err != nil {
		return fmt.Errorf("call probe: %w", err)
	}
	b := NewNode(epB) // its pump answers the pings
	defer b.Close()
	var firstErr error
	ping := func(int) {
		if _, err := a.Ping(2, time.Second, 0); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ping(0)
	us := timeBatch(n, time.Microsecond, ping)
	const allocCalls = 1000
	allocs := mallocs(func() {
		for i := 0; i < allocCalls; i++ {
			ping(i)
		}
	})
	if firstErr != nil {
		return fmt.Errorf("call probe: ping: %w", firstErr)
	}
	tr.set("transport.call_us", median(us))
	tr.set("transport.call_allocs", allocs/allocCalls)
	return nil
}

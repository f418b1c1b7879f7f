package propnode

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/transport"
)

// hookNet wraps a loopback so a test can act on the wire: every endpoint it
// opens calls onSend (if set) before each Send, and the sends of the host
// held in silent (plus one; 0 is none) vanish, as do those drop (if set)
// returns true for.
type hookNet struct {
	*transport.Loopback
	onSend func(from, to int, m transport.Message)
	drop   func(from, to int, m transport.Message) bool
	silent atomic.Int64
}

type hookEndpoint struct {
	transport.Endpoint
	net *hookNet
}

func (n *hookNet) Open(host int) (transport.Endpoint, error) {
	ep, err := n.Loopback.Open(host)
	if err != nil {
		return nil, err
	}
	return &hookEndpoint{Endpoint: ep, net: n}, nil
}

func (e *hookEndpoint) Send(to int, m transport.Message) error {
	if f := e.net.onSend; f != nil {
		f(e.Host(), to, m)
	}
	if e.net.silent.Load() == int64(e.Host())+1 || (e.net.drop != nil && e.net.drop(e.Host(), to, m)) {
		return nil
	}
	return e.Endpoint.Send(to, m)
}

// countPings is a hookNet.onSend that counts TPing sends, retransmits
// included, into n.
func countPings(n *atomic.Uint64) func(from, to int, m transport.Message) {
	return func(_, _ int, m transport.Message) {
		if m.Type == transport.TPing {
			n.Add(1)
		}
	}
}

// quietRuntime starts n agents whose probe and heartbeat timers are hours
// away, so the test drives every exchange itself. MinVar is -Inf: every
// evaluation that completes wants to commit. ping is the first deadline of
// every call and heartbeat.
func quietRuntime(t *testing.T, n int, policy core.Policy, net transport.Network, ping time.Duration) *Runtime {
	t.Helper()
	rt := New(net, Config{
		Policy:          policy,
		Seed:            11,
		MinVar:          math.Inf(-1),
		ProbeIntervalMS: 3.6e6,
		PingTimeout:     ping,
		Lat:             ClusterLat,
	})
	if err := rt.Start(hostsN(n)); err != nil {
		t.Fatalf("start: %v", err)
	}
	return rt
}

// twoHopPartner finds a walk u→s→v from host 0's slot such that policy has
// an exchange to evaluate: under PROP-O, a legal trade exists.
func twoHopPartner(t *testing.T, rt *Runtime, policy core.Policy) (u int, path []int) {
	t.Helper()
	o := rt.Overlay()
	u = o.SlotOfHost(0)
	for _, s := range o.Neighbors(u) {
		for _, v := range o.Neighbors(s) {
			if v == u {
				continue
			}
			path = []int{u, s, v}
			var sc overlay.Scratch
			if give, _ := core.SelectTrade(o, u, v, path, rt.m, rng.New(1), &sc); policy == core.PROPG || len(give) > 0 {
				return u, path
			}
		}
	}
	t.Fatal("no two-hop partner with an exchange to evaluate")
	return 0, nil
}

// TestStaleEvaluationIsRejected moves the overlay while an evaluation's RTTs
// are in flight — the partner's host swaps with a bystander's — and asserts
// the exchange does not commit: the cycle ends Refused, which counts as
// Stale and Rejected, never as a measurement failure. The move takes rt.mu from inside the first
// measurement send, so it also pins that no round trip holds the lock. The
// control runs the same evaluation with nothing moved, and it commits.
func TestStaleEvaluationIsRejected(t *testing.T) {
	for _, policy := range []core.Policy{core.PROPG, core.PROPO} {
		for _, move := range []bool{false, true} {
			net := &hookNet{Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf})}
			rt := quietRuntime(t, 16, policy, net, time.Second)
			u, path := twoHopPartner(t, rt, policy)
			v := path[2]
			bystander := -1
			for w := 0; w < rt.Overlay().NumSlots(); w++ {
				if w != u && w != v && w != path[1] {
					bystander = w
					break
				}
			}
			hostU, hostV := rt.Overlay().HostOf(u), rt.Overlay().HostOf(v)
			var once sync.Once
			net.onSend = func(from, to int, m transport.Message) {
				if from != hostU || (m.Type != transport.TPing && m.Type != transport.TMeasure) {
					return
				}
				once.Do(func() {
					if !rt.mu.TryLock() {
						t.Errorf("%v: rt.mu held across a measurement round trip", policy)
						return
					}
					defer rt.mu.Unlock()
					if move {
						if err := rt.o.SwapHosts(v, bystander); err != nil {
							t.Error(err)
						}
					}
				})
			}
			// The agent's cycle opens as its probe timer would; the walk's
			// reply is path.
			rt.mu.Lock()
			a := rt.agents[hostU]
			a.mu.Lock()
			a.cyc.Fired(&a.round, rt.o.Neighbors(u))
			a.mu.Unlock()
			rt.mu.Unlock()
			end := rt.evaluate(a, u, path)
			rt.ended(end)
			committed := end.Reason == core.Exchanged
			rt.Stop()

			c := rt.Counters()
			if move {
				if committed || c.Exchanges != 0 || c.Stale != 1 || c.Rejected != 1 || c.MeasureFailures != 0 {
					t.Fatalf("%v, overlay moved mid-evaluation: committed %v, counters %+v; want one Stale rejection", policy, committed, c)
				}
				if rt.Overlay().HostOf(u) != hostU || rt.Overlay().HostOf(bystander) != hostV {
					t.Fatalf("%v: a stale evaluation changed the slot↔host mapping", policy)
				}
			} else if !committed || c.Exchanges != 1 || c.Stale != 0 || c.Rejected != 0 {
				t.Fatalf("%v, control: committed %v, counters %+v; want one exchange", policy, committed, c)
			}
			if err := rt.Overlay().CheckInvariants(); err != nil {
				t.Fatalf("%v: %v", policy, err)
			}
		}
	}
}

// TestExchangesUnderContention runs 16 agents probing every millisecond with
// MinVar -Inf, so nearly every evaluation wants to commit and evaluations of
// overlapping neighborhoods run at once. Some must commit and some must go
// stale; on a fault-free loopback no measurement may fail, and the overlay
// must come out whole.
func TestExchangesUnderContention(t *testing.T) {
	for _, policy := range []core.Policy{core.PROPG, core.PROPO} {
		rt := startRuntime(t, 16, Config{Policy: policy, Seed: 5, ProbeIntervalMS: 1, MinVar: math.Inf(-1)}, nil)
		ok := waitFor(t, 10*time.Second, func() bool {
			c := rt.Counters()
			return c.Exchanges >= 20 && c.Stale >= 1
		})
		rt.Stop()
		c := rt.Counters()
		if !ok {
			t.Fatalf("%v: want ≥ 20 exchanges and ≥ 1 stale evaluation: %+v", policy, c)
		}
		if c.MeasureFailures != 0 {
			t.Fatalf("%v: %d measurement failures on a fault-free loopback: %+v", policy, c.MeasureFailures, c)
		}
		o := rt.Overlay()
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("%v: overlay invariants after Stop: %v", policy, err)
		}
		if !o.Connected() {
			t.Fatalf("%v: overlay disconnected after Stop", policy)
		}
		t.Logf("%v: %+v", policy, c)
	}
}

// TestEvaluationWirePrice pins what one evaluation costs on the wire: u
// measures its own pairs, and v gets one TMeasure listing every target of
// its pairs, measures each and answers once. Cold — before any heartbeat —
// every leg is a ping: 2 + 2k messages for v's k pairs, where a relay per
// pair cost 4k. Warm — after one detector sweep per agent — each side reads
// its neighbors' RTTs from its neighborQ and pings only the legs to hosts
// that are not its neighbors.
func TestEvaluationWirePrice(t *testing.T) {
	for _, policy := range []core.Policy{core.PROPG, core.PROPO} {
		for _, warm := range []bool{false, true} {
			net := &hookNet{Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf})}
			rt := quietRuntime(t, 16, policy, net, time.Second)
			u, path := twoHopPartner(t, rt, policy)
			hostU, hostV := rt.Overlay().HostOf(u), rt.Overlay().HostOf(path[2])
			var mu sync.Mutex
			counting := false
			sent := map[[2]int]int{} // by sending host and message type
			measureTo := -1
			net.onSend = func(from, to int, m transport.Message) {
				mu.Lock()
				defer mu.Unlock()
				if !counting {
					return
				}
				sent[[2]int{from, int(m.Type)}]++
				if from == hostU && m.Type == transport.TMeasure {
					measureTo = to
				}
			}
			if warm {
				sweepAll(rt)
			}
			rt.mu.Lock()
			// A leg is cached when its target is a neighbor of the host
			// measuring it, as the sweeps just saw them.
			nbrsOf := map[int][]int{}
			for _, h := range []int{hostU, hostV} {
				for _, s := range rt.o.Neighbors(rt.o.SlotOfHost(h)) {
					nbrsOf[h] = append(nbrsOf[h], rt.o.HostOf(s))
				}
			}
			a := rt.agents[hostU]
			a.mu.Lock()
			a.cyc.Fired(&a.round, rt.o.Neighbors(u))
			a.mu.Unlock()
			rt.mu.Unlock()
			mu.Lock()
			counting = true
			mu.Unlock()
			end := rt.evaluate(a, u, path)
			rt.Stop()
			if end.Reason != core.Exchanged {
				t.Fatalf("%v, warm %v: evaluation ended %v, want an exchange", policy, warm, end.Reason)
			}

			legs := map[int]int{}  // by measuring host
			pings := map[int]int{} // the legs no table holds
			for _, pr := range a.sc.Pairs {
				switch {
				case pr[0] == pr[1]:
				case pr[0] == hostU || pr[0] == hostV:
					legs[pr[0]]++
					if !warm || !slices.Contains(nbrsOf[pr[0]], pr[1]) {
						pings[pr[0]]++
					}
				default:
					t.Fatalf("%v: pair %v measured from neither u's host %d nor v's %d", policy, pr, hostU, hostV)
				}
			}
			if warm && (pings[hostU] >= legs[hostU] || pings[hostV] >= legs[hostV]) {
				t.Fatalf("%v: no before-leg is a neighbor's (u pings %d of %d, v %d of %d)",
					policy, pings[hostU], legs[hostU], pings[hostV], legs[hostV])
			}
			mu.Lock()
			if got := sent[[2]int{hostU, int(transport.TMeasure)}]; got != 1 || measureTo != hostV {
				t.Errorf("%v, warm %v: u sent %d TMeasure (last to host %d), want 1 to v's host %d", policy, warm, got, measureTo, hostV)
			}
			if got := sent[[2]int{hostU, int(transport.TPing)}]; got != pings[hostU] {
				t.Errorf("%v, warm %v: u sent %d pings for its %d pairs, want %d", policy, warm, got, legs[hostU], pings[hostU])
			}
			if got := sent[[2]int{hostV, int(transport.TPing)}]; got != pings[hostV] || legs[hostV] == 0 {
				t.Errorf("%v, warm %v: v sent %d pings for its %d pairs, want %d", policy, warm, got, legs[hostV], pings[hostV])
			}
			if got := sent[[2]int{hostV, int(transport.TMeasureReply)}]; got != 1 {
				t.Errorf("%v, warm %v: v sent %d TMeasureReply, want 1", policy, warm, got)
			}
			mu.Unlock()
		}
	}
}

// sweepAll runs one detector sweep for every agent at once, as their
// detector goroutines would, and returns when all are done.
func sweepAll(rt *Runtime) {
	rt.mu.Lock()
	agents := rt.allAgentsLocked()
	rt.mu.Unlock()
	var wg sync.WaitGroup
	for _, a := range agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.heartbeatOnce(a, nil)
		}()
	}
	wg.Wait()
}

// rttBody lays RTTs out as a TMeasureReply body.
func rttBody(rtts ...float64) []byte {
	var b []byte
	for _, v := range rtts {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestMeasureRelayRejectsNonFiniteRTT runs the Measure step against a fake
// partner whose reply is bad in every way a reply can be. Each must count as
// measured only the pairs before the partner's first bad entry — a
// negative, NaN or infinite RTT, a missing or ragged one, a refusal (TTL 0)
// or a reply to another incarnation — so that Measured poisons there.
func TestMeasureRelayRejectsNonFiniteRTT(t *testing.T) {
	lb := transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf})
	rt := quietRuntime(t, 4, core.PROPG, lb, time.Second)
	defer rt.Stop()
	ep, err := lb.Open(99)
	if err != nil {
		t.Fatal(err)
	}
	relay := transport.NewNode(ep)
	defer relay.Close()
	rt.mu.Lock()
	a := rt.agents[0]
	rt.mu.Unlock()
	// Host 0 measures pairs 0, 2 and 5 itself; partner 99 measures 1, 3, 4.
	pairs := [][2]int{{0, 1}, {99, 1}, {0, 2}, {99, 2}, {99, 3}, {0, 3}}
	good := []float64{2, 4, 6}
	for _, tc := range []struct {
		name     string
		ttl      uint8
		epoch    uint32 // added to the request's
		body     []byte
		measured int
	}{
		{"honest", 1, 0, rttBody(good...), 6},
		{"+Inf first", 1, 0, rttBody(math.Inf(1), 4, 6), 1},
		{"NaN first", 1, 0, rttBody(math.NaN(), 4, 6), 1},
		{"negative first", 1, 0, rttBody(-1, 4, 6), 1},
		{"NaN inner", 1, 0, rttBody(2, math.NaN(), 6), 3},
		{"+Inf last", 1, 0, rttBody(2, 4, math.Inf(1)), 4},
		{"short", 1, 0, rttBody(2), 3},
		{"empty", 1, 0, nil, 1},
		{"ragged", 1, 0, append(rttBody(2), 1, 2, 3, 4, 5), 3},
		{"refused", 0, 0, rttBody(good...), 1},
		{"stale epoch", 1, 1, rttBody(good...), 1},
	} {
		relay.Handle(func(in transport.Inbound) {
			if in.Msg.Type == transport.TMeasure {
				_ = relay.Send(in.Msg.Src, transport.Message{Type: transport.TMeasureReply, TTL: tc.ttl,
					Epoch: in.Msg.Epoch + tc.epoch, Seq: in.Msg.Seq, Body: tc.body})
			}
		})
		a.sc.Pairs, a.sc.RTT = pairs, make([]float64, len(pairs))
		stale := rt.Counters().StaleEpochs
		if got := rt.measure(a); got != tc.measured {
			t.Errorf("%s: measured %d pairs, want %d", tc.name, got, tc.measured)
		}
		for i, k := range []int{1, 3, 4} {
			if k < tc.measured && a.sc.RTT[k] != good[i] {
				t.Errorf("%s: pair %d measured %v, want the partner's %v", tc.name, k, a.sc.RTT[k], good[i])
			}
		}
		if got := rt.Counters().StaleEpochs - stale; got != uint64(tc.epoch) {
			t.Errorf("%s: %d stale epochs counted, want %d", tc.name, got, tc.epoch)
		}
	}
}

// TestHandleMeasureReplies drives the partner's side: it pings the listed
// hosts in order and stops at the first that fails, replying with the RTTs
// before it; a list that is empty, ragged or longer than a frame holds is
// refused with TTL 0, and nothing is pinged.
func TestHandleMeasureReplies(t *testing.T) {
	var pings atomic.Uint64
	net := &hookNet{
		Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf}),
		onSend:   countPings(&pings),
	}
	rt := quietRuntime(t, 4, core.PROPG, net, 5*time.Millisecond)
	defer rt.Stop()
	rt.mu.Lock()
	a := rt.agents[1]
	rt.mu.Unlock()
	ep, err := rt.net.Open(99)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	replies := inbox(ep)
	targets := func(hosts ...int) []byte {
		var b []byte
		for _, h := range hosts {
			b = binary.BigEndian.AppendUint64(b, uint64(int64(h)))
		}
		return b
	}
	for _, tc := range []struct {
		name string
		body []byte
		ttl  uint8
		want []byte
	}{
		{"all answer", targets(3, 1, 0), 1, rttBody(ClusterLat(1, 3), 0, ClusterLat(1, 0))},
		{"absent host inside", targets(3, 987654, 0), 1, rttBody(ClusterLat(1, 3))},
		{"absent host first", targets(987654, 3), 1, nil},
		{"empty", nil, 0, nil},
		{"ragged", targets(3)[:7], 0, nil},
		{"over MaxBody", make([]byte, transport.MaxBody+8), 0, nil},
	} {
		sent := pings.Load()
		rt.handleMeasure(a, transport.Message{Type: transport.TMeasure, Src: 99, Epoch: 7, Seq: 42, Body: tc.body})
		var m transport.Message
		select {
		case in := <-replies:
			m = in.Msg
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no reply", tc.name)
		}
		if m.Type != transport.TMeasureReply || m.Seq != 42 || m.Epoch != 7 || m.TTL != tc.ttl || !bytes.Equal(m.Body, tc.want) {
			t.Errorf("%s: replied %+v, want TTL %d and body %x", tc.name, m, tc.ttl, tc.want)
		}
		if tc.ttl == 0 && pings.Load() != sent {
			t.Errorf("%s: a refused list was pinged", tc.name)
		}
	}
}

// TestCounterPerReason pins what each way a probe cycle ends counts in
// Counters — among them the walk_failures and measure_failures metrics the
// ledger reads. Stale ends are Rejected too.
func TestCounterPerReason(t *testing.T) {
	want := map[core.Reason]Counters{
		core.NoFirstHop:  {WalkFailures: 1},
		core.WalkFailed:  {WalkFailures: 1},
		core.WalkLost:    {WalkFailures: 1},
		core.PartnerGone: {Rejected: 1},
		core.NoTrade:     {Rejected: 1},
		core.Poisoned:    {MeasureFailures: 1},
		core.BelowMinVar: {Rejected: 1},
		core.Refused:     {Rejected: 1, Stale: 1},
		core.Exchanged:   {Exchanges: 1},
	}
	if len(want) != int(core.NumReasons) {
		t.Fatalf("%d rows for %d reasons", len(want), core.NumReasons)
	}
	for why, w := range want {
		rt := New(transport.NewLoopback(transport.LoopbackConfig{}), Config{})
		rt.ended(core.Step{Kind: core.End, Reason: why})
		if got := rt.Counters(); got != w {
			t.Errorf("a cycle ended for reason %d counts %+v, want %+v", why, got, w)
		}
	}
}

// TestProbesCountOnlyStartedCycles pins the bugfix: Probes counts cycles
// that start, so it is the sum of the cycle ends. A live agent's firing
// starts one; the firing of an agent being stopped after Crash — its host
// holds no live slot — starts none and used to count one anyway.
func TestProbesCountOnlyStartedCycles(t *testing.T) {
	rt := quietRuntime(t, 8, core.PROPG, transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf}), time.Second)
	rt.mu.Lock()
	live, stale := rt.agents[2], rt.agents[3]
	rt.mu.Unlock()
	rt.probeOnce(live)
	if err := rt.Crash(3); err != nil {
		t.Fatal(err)
	}
	rt.probeOnce(stale)
	rt.Stop()
	c := rt.Counters()
	if ends := c.Exchanges + c.Rejected + c.WalkFailures + c.MeasureFailures; c.Probes != 1 || ends != 1 {
		t.Fatalf("Probes = %d for %d cycle ends, want 1 each: %+v", c.Probes, ends, c)
	}
}

package propnode

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/transport"
)

// hookNet wraps a loopback so a test can act on the wire: every endpoint it
// opens calls onSend (if set) before each Send.
type hookNet struct {
	*transport.Loopback
	onSend func(from, to int, m transport.Message)
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
	return e.Endpoint.Send(to, m)
}

// quietRuntime starts n agents whose probe and heartbeat timers are hours
// away, so the test drives every exchange itself. MinVar is -Inf: every
// evaluation that completes wants to commit.
func quietRuntime(t *testing.T, n int, policy core.Policy, net transport.Network) *Runtime {
	t.Helper()
	rt := New(net, Config{
		Policy:          policy,
		Seed:            11,
		MinVar:          math.Inf(-1),
		ProbeIntervalMS: 3.6e6,
		PingTimeout:     time.Second,
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
			rt := quietRuntime(t, 16, policy, net)
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
			a.cyc.Fired(&a.round, rt.o.Neighbors(u))
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

// TestMeasureRelayRejectsNonFiniteRTT: a relay that reports a negative,
// NaN or infinite RTT fails the measurement instead of feeding Var.
func TestMeasureRelayRejectsNonFiniteRTT(t *testing.T) {
	lb := transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf})
	rt := quietRuntime(t, 4, core.PROPG, lb)
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
	for _, bad := range []float64{math.Inf(1), math.NaN(), -1} {
		relay.Handle(func(in transport.Inbound) {
			if in.Msg.Type != transport.TMeasure {
				return
			}
			body := binary.BigEndian.AppendUint64(nil, math.Float64bits(bad))
			_ = relay.Send(in.Msg.Src, transport.Message{Type: transport.TMeasureReply, TTL: 1, Epoch: in.Msg.Epoch, Seq: in.Msg.Seq, Body: body})
		})
		if rtt, err := rt.measureFrom(a, 99, 1); err == nil {
			t.Fatalf("relay reporting %v: measured %v, want an error", bad, rtt)
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

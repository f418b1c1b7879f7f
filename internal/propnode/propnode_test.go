package propnode

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/transport"
)

func clusterHalf(a, b int) float64 { return ClusterLat(a, b) / 2 }

// inbox serves ep with a receiver that queues copies of up to 64
// deliveries for the test to read — more than a test leaves unread — and
// drops the rest, so no sender ever waits on the test.
func inbox(ep transport.Endpoint) <-chan transport.Inbound {
	ch := make(chan transport.Inbound, 64)
	ep.Serve(func(in transport.Inbound) {
		var path []int
		var body []byte
		in.Msg = in.Msg.CopyInto(&path, &body)
		select {
		case ch <- in:
		default:
		}
	})
	return ch
}

func hostsN(n int) []int {
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	return hosts
}

// startRuntime starts n agents on cfg.Clock, wall time if nil.
func startRuntime(t *testing.T, n int, cfg Config, inj *faults.Injector) *Runtime {
	t.Helper()
	lb := transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf, Faults: inj})
	if cfg.ProbeIntervalMS == 0 {
		cfg.ProbeIntervalMS = 3
	}
	if cfg.PingTimeoutMS == 0 {
		cfg.PingTimeoutMS = 25
	}
	cfg.Lat = ClusterLat
	rt := New(lb, cfg)
	if err := rt.Start(hostsN(n)); err != nil {
		t.Fatalf("start: %v", err)
	}
	return rt
}

// engineRuntime starts n agents on a fresh event.Engine.
func engineRuntime(t *testing.T, n int, cfg Config, inj *faults.Injector) (*Runtime, *event.Engine) {
	t.Helper()
	e := event.New()
	cfg.Clock = e
	return startRuntime(t, n, cfg, inj), e
}

// until steps e until cond holds, for at most ms of simulated time, and
// reports whether it does.
func until(e *event.Engine, ms event.Time, cond func() bool) bool {
	for end := e.Now() + ms; !cond(); {
		if e.Now() > end || !e.Step() {
			return false
		}
	}
	return true
}

// settle steps rt's engine until cond holds, for at most a minute of
// simulated time; on wall time, where an input that waits on no deadline
// ends before the call that made it returns, it reads cond each
// millisecond for at most ten seconds.
func settle(t *testing.T, rt *Runtime, what string, cond func() bool) bool {
	t.Helper()
	e, _ := rt.cfg.Clock.(*event.Engine)
	for end := time.Now().Add(10 * time.Second); e == nil && !cond() && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if e == nil && cond() || e != nil && until(e, 60_000, cond) {
		return true
	}
	t.Errorf("%s did not end", what)
	return false
}

// meanLat reads MeanLinkLatency under the runtime lock.
func meanLat(rt *Runtime) float64 {
	var m float64
	rt.View(func(o *overlay.Overlay) { m = o.MeanLinkLatency() })
	return m
}

// TestRuntimeConvergesPROPG asserts convergence, not a swap count, on ten
// seeds: at least one exchange commits, the mean link latency ends strictly
// lower, and the overlay invariants hold. Every PROP-G swap commits only on
// measured Var > 0, and loopback virtual RTTs equal ground truth exactly —
// so the mean must improve.
func TestRuntimeConvergesPROPG(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		converges(t, Config{Policy: core.PROPG, Seed: seed}, 1)
	}
}

// TestRuntimeConvergesPROPO is PROP-G's test for PROP-O, with two exchanges
// and every degree preserved.
func TestRuntimeConvergesPROPO(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		converges(t, Config{Policy: core.PROPO, Seed: seed}, 2)
	}
}

// converges runs 16 agents on an engine until they made exchanges exchanges
// and checks the run improved the overlay and, under PROP-O, kept its
// degree sequence.
func converges(t *testing.T, cfg Config, exchanges uint64) {
	t.Helper()
	rt, e := engineRuntime(t, 16, cfg, nil)
	before := meanLat(rt)
	degsBefore := rt.Overlay().Logical.DegreeSequence()
	ok := until(e, 60_000, func() bool { return rt.Counters().Exchanges >= exchanges })
	rt.Stop()
	c := rt.Counters()
	if !ok {
		t.Fatalf("%v seed %d: fewer than %d exchanges: %+v", cfg.Policy, cfg.Seed, exchanges, c)
	}
	o := rt.Overlay()
	if after := o.MeanLinkLatency(); after >= before {
		t.Fatalf("%v seed %d: mean link latency did not improve: %v → %v (%d exchanges)",
			cfg.Policy, cfg.Seed, before, after, c.Exchanges)
	}
	if degs := o.Logical.DegreeSequence(); cfg.Policy == core.PROPO && !slices.Equal(degs, degsBefore) {
		t.Fatalf("seed %d: degree sequence changed under PROP-O: %v → %v", cfg.Seed, degsBefore, degs)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatalf("%v seed %d: overlay invariants after run: %v", cfg.Policy, cfg.Seed, err)
	}
}

// TestStartRejectsBadConfig: an interval fill cannot repair (NaN, ±Inf,
// negative, or so long that its timer overflows a time.Duration), a negative
// deadline or a kernel core.Config.Validate refuses fails Start before any
// agent spawns — a NaN, negative or overflowing interval would otherwise
// spin a timer loop (a 1e13 ms sweep period went negative and swept every
// millisecond; a 3e11 ms probe interval's 32 × back-off went negative and
// fired at once), and an unknown policy or a NaN MinVar start a runtime
// that never exchanges.
func TestStartRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{ProbeIntervalMS: math.NaN()},
		{ProbeIntervalMS: -5},
		{ProbeIntervalMS: math.Inf(1)},
		{ProbeIntervalMS: 3e11},
		{HeartbeatIntervalMS: math.NaN()},
		{HeartbeatIntervalMS: -1},
		{HeartbeatIntervalMS: 1e13},
		{PingTimeoutMS: -1},
		{PingTimeoutMS: math.NaN()},
		{Policy: core.Policy(9)},
		{MinVar: math.NaN()},
	} {
		rt := New(transport.NewLoopback(transport.LoopbackConfig{}), cfg)
		if err := rt.Start(hostsN(8)); err == nil {
			rt.Stop()
			t.Errorf("%+v: started", cfg)
		} else if len(rt.agents) != 0 || rt.o != nil {
			t.Errorf("%+v: rejected after spawning %d agents", cfg, len(rt.agents))
		}
	}
}

// hopOrder is the FirstHop sequence of a copy of q whose every cycle fails
// in warm-up, so each first hop falls to the tail: the neighbors in the
// (Prio, arrival) order an agent probes them in.
func hopOrder(q []core.QueueEntry) []int {
	p := core.Peer{Queue: slices.Clone(q)}
	cfg := core.DefaultConfig(core.PROPG)
	cfg.MaxInitTrials = len(q)
	order := make([]int, 0, len(q))
	for range q {
		nb, _ := p.FirstHop()
		p.Finish(false, cfg)
		order = append(order, nb)
	}
	return order
}

// TestEngineRunIsSeedDeterministic runs one seed twice on an engine under
// each policy, with loss, duplication, a crash, a rejoin and a repair: the
// two runs end with equal Counters, an equal overlay — every slot's host and
// neighbors — and every agent's neighborQ in the same probing order, so
// neither scheduling nor map iteration leaks into the run. The queues start
// in the paper's random order, drawn from the runtime stream.
func TestEngineRunIsSeedDeterministic(t *testing.T) {
	for _, policy := range []core.Policy{core.PROPG, core.PROPO} {
		run := func() (Counters, string) {
			inj, err := faults.NewInjector(faults.Config{Seed: 5, LossProb: 0.02, DupProb: 0.02})
			if err != nil {
				t.Fatal(err)
			}
			rt, e := engineRuntime(t, 24, Config{Policy: policy, Seed: 7}, inj)
			shuffled := false
			for _, a := range rt.allAgentsLocked() {
				order := hopOrder(a.cyc.Queue)
				shuffled = shuffled || !slices.IsSorted(order)
			}
			if !shuffled {
				t.Fatal("every initial probing order is ascending — the random permutation is missing")
			}
			e.RunUntil(200)
			if err := rt.Crash(3); err != nil {
				t.Fatal(err)
			}
			e.RunUntil(400)
			if _, err := rt.Join(3); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Repair(); err != nil {
				t.Fatal(err)
			}
			e.RunUntil(600)
			rt.Stop()
			o, out := rt.Overlay(), ""
			for u := range o.NumSlots() {
				out += fmt.Sprintln(u, o.HostOf(u), o.Neighbors(u))
			}
			for _, a := range rt.allAgentsLocked() {
				out += fmt.Sprintln(a.host, hopOrder(a.cyc.Queue))
			}
			return rt.Counters(), out
		}
		c1, o1 := run()
		c2, o2 := run()
		if c1 != c2 || o1 != o2 {
			t.Fatalf("%v: seed 7 ran two ways:\n%+v\n%s\n%+v\n%s", policy, c1, o1, c2, o2)
		}
		if c1.Exchanges == 0 || c1.Recovers != 1 {
			t.Fatalf("%v: the run made no exchange or no rejoin: %+v", policy, c1)
		}
	}
}

// TestRuntimeSoakChurnRace is the live runtime's -race soak: agents
// probing and exchanging concurrently while a churn driver joins, leaves
// and crash-stops nodes, repairs and reconnects the overlay — every call the
// chaos harness makes — for a bounded wall-clock budget. Once Stop returns,
// every cycle that started has ended, and the audit invariants hold on the
// shared overlay.
func TestRuntimeSoakChurnRace(t *testing.T) {
	inj, err := faults.NewInjector(faults.Config{Seed: 99, LossProb: 0.01, DupProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rt := startRuntime(t, 20, Config{
		Policy:        core.PROPG,
		Seed:          3,
		PingTimeoutMS: 10,
	}, inj)

	churnRng := rng.New(777)
	nextHost := 10_000
	// Two seconds of wall clock: on a saturated single-core box the churn
	// driver's 5ms pacing loop runs an order of magnitude slower than its
	// theoretical rate, and one second leaves no margin over the 10-op floor.
	stop := time.After(2 * time.Second)
	ops, crashes := 0, 0
loop:
	for {
		select {
		case <-stop:
			break loop
		default:
		}
		time.Sleep(5 * time.Millisecond)
		switch churnRng.Intn(5) {
		case 0:
			if _, err := rt.Join(nextHost); err != nil {
				t.Fatalf("join(%d): %v", nextHost, err)
			}
			nextHost++
		case 1:
			var live []int
			rt.View(func(o *overlay.Overlay) { live = o.Hosts() })
			if len(live) <= 10 {
				continue
			}
			victim := live[churnRng.Intn(len(live))]
			if err := rt.Leave(victim); err != nil {
				t.Fatalf("leave(%d): %v", victim, err)
			}
		case 2:
			var live []int
			rt.View(func(o *overlay.Overlay) { live = o.Hosts() })
			if len(live) <= 10 {
				continue
			}
			victim := live[churnRng.Intn(len(live))]
			if err := rt.Crash(victim); err != nil {
				t.Fatalf("crash(%d): %v", victim, err)
			}
			crashes++
		case 3:
			if _, err := rt.Repair(); err != nil {
				t.Fatalf("repair: %v", err)
			}
		case 4:
			rt.EnsureConnected()
		}
		ops++
	}

	// Final repair sweep, then quiesce and audit.
	if _, err := rt.Repair(); err != nil {
		t.Fatalf("final repair: %v", err)
	}
	rt.Stop()
	auditQuiesced(t, rt.Overlay())
	c := rt.Counters()
	if c.Probes == 0 {
		t.Fatal("soak fired no probes")
	}
	if ends := c.Exchanges + c.Rejected + c.WalkFailures + c.MeasureFailures; ends != c.Probes {
		t.Fatalf("%d cycle ends for %d probes after Stop, want one each: %+v", ends, c.Probes, c)
	}
	if ops < 10 {
		t.Fatalf("churn driver only ran %d ops", ops)
	}
	t.Logf("soak: %d churn ops (%d crashes), counters %+v", ops, crashes, c)
}

// TestRuntimeMeasureRelayFailurePoisonsExchange: a partner that cannot
// reach a listed host must abort the Var evaluation at that host's pair —
// Poisoned, never an exchange committed on incomplete data.
func TestRuntimeMeasureRelayFailurePoisonsExchange(t *testing.T) {
	// Probe timers far away: the test drives the Measure step itself.
	rt, _ := engineRuntime(t, 12, Config{Policy: core.PROPG, Seed: 9, ProbeIntervalMS: quietMS}, nil)
	defer rt.Stop()

	a := agentOf(rt, 0)
	if a == nil {
		t.Fatal("no agent for host 0")
	}
	// Partner 5's first target is absent: whether its prefix reply or the
	// relay's deadline comes first, pairs 1 and on go unmeasured.
	a.sc.Pairs = [][2]int{{0, 1}, {5, 987654}, {5, 1}, {0, 2}}
	a.sc.RTT = make([]float64, len(a.sc.Pairs))
	measured := measureNow(t, rt, a)
	if measured != 1 {
		t.Fatalf("measured %d pairs past a relay to an absent host, want 1", measured)
	}
	var ev core.Evaluation
	if why, _ := ev.Judge(a.sc.RTT, measured, math.Inf(-1)); why != core.Poisoned {
		t.Fatalf("a relay failure judged %v, want Poisoned", why)
	}
}

// TestStopQuiesces stops, on ten seeds, a runtime whose probe and sweep
// timers are armed and one of whose cycles waits on a walk reply that will
// never come. Once Stop returns, every cycle that started has ended — the
// walk's lost — nothing is left to fire, and the overlay is whole.
func TestStopQuiesces(t *testing.T) {
	for seed := uint64(8); seed < 18; seed++ {
		dropped := false
		net := &hookNet{
			Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf}),
			drop: func(_, to int, m transport.Message) bool {
				dropped = dropped || to == 0 && m.Type == transport.TWalkReply
				return to == 0 && m.Type == transport.TWalkReply
			},
		}
		e := event.New()
		rt := New(net, Config{Policy: core.PROPG, Seed: seed, ProbeIntervalMS: 2, HeartbeatIntervalMS: 4,
			PingTimeoutMS: 10, Lat: ClusterLat, Clock: e})
		if err := rt.Start(hostsN(12)); err != nil {
			t.Fatal(err)
		}
		// Host 0's walk call is in flight right after a step dropped its reply.
		if !until(e, 60_000, func() bool {
			defer func() { dropped = false }()
			return dropped && rt.Counters().Probes >= 20
		}) {
			t.Fatalf("seed %d: host 0 sent no walk", seed)
		}
		rt.Stop()
		c := rt.Counters()
		if ends := c.Exchanges + c.Rejected + c.WalkFailures + c.MeasureFailures; ends != c.Probes || rt.ends[core.WalkLost].Load() == 0 {
			t.Fatalf("seed %d: %d cycle ends for %d probes after Stop, want one each and a lost walk: %+v", seed, ends, c.Probes, c)
		}
		if e.Step() {
			t.Fatalf("seed %d: an event was left to fire after Stop", seed)
		}
		if err := rt.Overlay().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

package propnode

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/transport"
)

func clusterHalf(a, b int) float64 { return ClusterLat(a, b) / 2 }

// inbox serves ep with a receiver that queues up to 64 deliveries for the
// test to read — more than a test leaves unread — and drops the rest, so no
// sender ever waits on the test.
func inbox(ep transport.Endpoint) <-chan transport.Inbound {
	ch := make(chan transport.Inbound, 64)
	ep.Serve(func(in transport.Inbound) {
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

func startRuntime(t *testing.T, n int, cfg Config, inj *faults.Injector) *Runtime {
	t.Helper()
	lb := transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf, Faults: inj})
	if cfg.ProbeIntervalMS == 0 {
		cfg.ProbeIntervalMS = 3
	}
	if cfg.PingTimeout == 0 {
		cfg.PingTimeout = 25 * time.Millisecond
	}
	cfg.Lat = ClusterLat
	rt := New(lb, cfg)
	if err := rt.Start(hostsN(n)); err != nil {
		t.Fatalf("start: %v", err)
	}
	return rt
}

// meanLat reads MeanLinkLatency under the runtime lock.
func meanLat(rt *Runtime) float64 {
	var m float64
	rt.View(func(o *overlay.Overlay) { m = o.MeanLinkLatency() })
	return m
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// TestRuntimeConvergesPROPG asserts convergence, not a swap count: at least
// one exchange commits, the mean link latency ends strictly lower, and the
// overlay invariants hold. That is schedule-independent where a count is
// not: fault-free, nothing mutates the overlay before the first commit, so
// every schedule probes the same seed-built start state (mean 11.20, not a
// local optimum) until a swap lands; how many more follow depends on which
// pair went first — seed 1's world reaches a local optimum after as few as
// two.
func TestRuntimeConvergesPROPG(t *testing.T) {
	rt := startRuntime(t, 16, Config{Policy: core.PROPG, Seed: 1}, nil)
	before := meanLat(rt)

	ok := waitFor(t, 5*time.Second, func() bool { return rt.Counters().Exchanges >= 1 })
	rt.Stop()
	c := rt.Counters()
	if !ok {
		t.Fatalf("no exchanges executed: %+v", c)
	}
	if c.Probes == 0 {
		t.Fatal("no probes fired")
	}
	after := rt.Overlay().MeanLinkLatency() // post-Stop: quiesced
	// Every PROP-G swap commits only on measured Var > 0, and loopback
	// virtual RTTs equal ground truth exactly — so the mean must improve.
	if after >= before {
		t.Fatalf("mean link latency did not improve: %v → %v (%d exchanges)", before, after, c.Exchanges)
	}
	if err := rt.Overlay().CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants after run: %v", err)
	}
}

func TestRuntimeConvergesPROPO(t *testing.T) {
	rt := startRuntime(t, 16, Config{Policy: core.PROPO, Seed: 2}, nil)
	before := meanLat(rt)
	var degsBefore []int
	rt.View(func(o *overlay.Overlay) { degsBefore = o.Logical.DegreeSequence() })

	ok := waitFor(t, 5*time.Second, func() bool { return rt.Counters().Exchanges >= 2 })
	rt.Stop()
	c := rt.Counters()
	if !ok {
		t.Fatalf("no exchanges executed: %+v", c)
	}
	after := rt.Overlay().MeanLinkLatency() // post-Stop: quiesced
	if after >= before {
		t.Fatalf("mean link latency did not improve: %v → %v", before, after)
	}
	// PROP-O preserves every degree.
	degsAfter := rt.Overlay().Logical.DegreeSequence()
	if len(degsBefore) != len(degsAfter) {
		t.Fatalf("degree sequence length changed: %d → %d", len(degsBefore), len(degsAfter))
	}
	for i := range degsBefore {
		if degsBefore[i] != degsAfter[i] {
			t.Fatalf("degree sequence changed under PROP-O: %v → %v", degsBefore, degsAfter)
		}
	}
	if err := rt.Overlay().CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants after run: %v", err)
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
		{PingTimeout: -time.Millisecond},
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

// TestQueueOrderIsSeedDeterministic pins the neighborQ against scheduling
// and map-iteration leaks: two runtimes built from one Config.Seed hold the
// same per-agent probing order — the paper's random initial permutation
// drawn from the runtime stream, and neighbors that arrive later entering in
// ascending slot order — while each queue is kept in ascending slot order.
// The probe interval is an hour, so no agent fires and the overlay is
// quiesced.
func TestQueueOrderIsSeedDeterministic(t *testing.T) {
	const n = 24
	queues := func(seed uint64) [][]int {
		rt := startRuntime(t, n, Config{Seed: seed, ProbeIntervalMS: 3.6e6}, nil)
		defer rt.Stop()
		rt.mu.Lock()
		defer rt.mu.Unlock()
		out := make([][]int, n)
		shuffled := false
		for host := 0; host < n; host++ {
			a, u := rt.agents[host], rt.o.SlotOfHost(host)
			a.mu.Lock()
			if len(a.cyc.Queue) != rt.o.Degree(u) {
				t.Fatalf("host %d: %d queued of %d neighbors at start", host, len(a.cyc.Queue), rt.o.Degree(u))
			}
			order := hopOrder(a.cyc.Queue)
			for i := 1; i < len(order); i++ {
				shuffled = shuffled || order[i] < order[i-1]
			}
			// Three fresh neighbors at once: the order they enter the queue
			// in must not depend on anything but the overlay.
			for added, x := 0, 0; added < 3 && x < n; x++ {
				if x != u && rt.o.AddEdge(u, x) == nil {
					added++
				}
			}
			a.cyc.Reconcile(rt.o.Neighbors(u))
			for i, qe := range a.cyc.Queue {
				if i > 0 && qe.Neighbor <= a.cyc.Queue[i-1].Neighbor {
					t.Fatalf("host %d: queue %v not in ascending slot order", host, a.cyc.Queue)
				}
			}
			out[host] = hopOrder(a.cyc.Queue)
			a.mu.Unlock()
		}
		if !shuffled {
			t.Fatal("every initial probing order is ascending — the random permutation is missing")
		}
		return out
	}
	first, second := queues(7), queues(7)
	for host := range first {
		if fmt.Sprint(first[host]) != fmt.Sprint(second[host]) {
			t.Fatalf("host %d: seed 7 queued %v, then %v", host, first[host], second[host])
		}
	}
}

// TestRuntimeSoakChurnRace is the live runtime's -race soak: goroutine
// agents probing and exchanging concurrently while a churn driver joins,
// leaves, and crash-stops nodes, for a bounded wall-clock budget. At
// quiesce the audit invariants must hold on the shared overlay.
func TestRuntimeSoakChurnRace(t *testing.T) {
	inj, err := faults.NewInjector(faults.Config{Seed: 99, LossProb: 0.01, DupProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rt := startRuntime(t, 20, Config{
		Policy:      core.PROPG,
		Seed:        3,
		PingTimeout: 10 * time.Millisecond,
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
		switch churnRng.Intn(4) {
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
		}
		ops++
	}

	// Final repair sweep, then quiesce and audit.
	if _, err := rt.Repair(); err != nil {
		t.Fatalf("final repair: %v", err)
	}
	rt.Stop()

	o := rt.Overlay()
	a := audit.New(1, 16)
	a.Register(audit.OverlayBijection(o), audit.OverlayConnected(o))
	a.CheckNow()
	if err := a.Err(); err != nil {
		t.Fatalf("audit at quiesce (%s): %v", a.Summary(), err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants at quiesce: %v", err)
	}
	c := rt.Counters()
	if c.Probes == 0 {
		t.Fatal("soak fired no probes")
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
	// Probe timers an hour away: the test drives the Measure step itself.
	rt := startRuntime(t, 12, Config{Policy: core.PROPG, Seed: 9, ProbeIntervalMS: 3.6e6}, nil)
	defer rt.Stop()

	rt.mu.Lock()
	a := rt.agents[0]
	rt.mu.Unlock()
	if a == nil {
		t.Fatal("no agent for host 0")
	}
	// Partner 5's first target is absent: whether its prefix reply or the
	// relay's deadline comes first, pairs 1 and on go unmeasured.
	a.sc.Pairs = [][2]int{{0, 1}, {5, 987654}, {5, 1}, {0, 2}}
	a.sc.RTT = make([]float64, len(a.sc.Pairs))
	measured := rt.measure(a)
	if measured != 1 {
		t.Fatalf("measured %d pairs past a relay to an absent host, want 1", measured)
	}
	var ev core.Evaluation
	if why, _ := ev.Judge(a.sc.RTT, measured, math.Inf(-1)); why != core.Poisoned {
		t.Fatalf("a relay failure judged %v, want Poisoned", why)
	}
}

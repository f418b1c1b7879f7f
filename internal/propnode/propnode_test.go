package propnode

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/transport"
)

// clusterLat is a two-cluster latency model with an obvious optimum: hosts
// with equal parity are close (1ms), cross-parity pairs are far (20ms), so
// location-aware exchanges have real gains to find.
func clusterLat(a, b int) float64 {
	if a == b {
		return 0
	}
	if a%2 == b%2 {
		return 1
	}
	return 20
}

func clusterHalf(a, b int) float64 { return clusterLat(a, b) / 2 }

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
	if cfg.Retries == 0 {
		cfg.Retries = 4
	}
	cfg.Lat = clusterLat
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

// TestQueueOrderIsSeedDeterministic pins the neighborQ against scheduling
// and map-iteration leaks: two runtimes built from one Config.Seed hold the
// same per-agent queue order — the paper's random initial permutation drawn
// from the runtime stream, and neighbors that arrive later entering in
// ascending slot order. The probe interval is an hour, so no agent fires
// and the overlay is quiesced.
func TestQueueOrderIsSeedDeterministic(t *testing.T) {
	const n = 24
	queues := func(seed uint64) [][]int {
		rt := startRuntime(t, n, Config{Seed: seed, ProbeIntervalMS: 3.6e6, SuspicionThreshold: -1}, nil)
		defer rt.Stop()
		rt.mu.Lock()
		defer rt.mu.Unlock()
		out := make([][]int, n)
		shuffled := false
		for host := 0; host < n; host++ {
			a, u := rt.agents[host], rt.o.SlotOfHost(host)
			if len(a.peer.Queue) != rt.o.Degree(u) {
				t.Fatalf("host %d: %d queued of %d neighbors at start", host, len(a.peer.Queue), rt.o.Degree(u))
			}
			for i := 1; i < len(a.peer.Queue); i++ {
				shuffled = shuffled || a.peer.Queue[i].Neighbor < a.peer.Queue[i-1].Neighbor
			}
			// Three fresh neighbors at once: the order they enter the queue
			// in must not depend on anything but the overlay.
			for added, x := 0, 0; added < 3 && x < n; x++ {
				if x != u && rt.o.AddEdge(u, x) == nil {
					added++
				}
			}
			a.peer.Reconcile(rt.o.Neighbors(u))
			for _, qe := range a.peer.Queue {
				out[host] = append(out[host], qe.Neighbor)
			}
		}
		if !shuffled {
			t.Fatal("every initial queue is in ascending slot order — the random permutation is missing")
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
		Retries:     3,
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
			var alive []int
			rt.View(func(o *overlay.Overlay) { alive = o.AliveSlots() })
			n := len(alive)
			if n <= 10 {
				continue
			}
			victim := alive[churnRng.Intn(len(alive))]
			if err := rt.Leave(victim); err != nil {
				t.Fatalf("leave(%d): %v", victim, err)
			}
		case 2:
			var alive []int
			rt.View(func(o *overlay.Overlay) { alive = o.AliveSlots() })
			n := len(alive)
			if n <= 10 {
				continue
			}
			victim := alive[churnRng.Intn(len(alive))]
			if err := rt.Crash(victim); err != nil {
				t.Fatalf("crash(%d): %v", victim, err)
			}
			crashes++
		case 3:
			if _, err := rt.RepairCrashed(); err != nil {
				t.Fatalf("repair: %v", err)
			}
		}
		ops++
	}

	// Final repair sweep, then quiesce and audit.
	if _, err := rt.RepairCrashed(); err != nil {
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

func TestRuntimeMeasureRelayFailurePoisonsExchange(t *testing.T) {
	// A measurement relay to a dead host must abort the Var evaluation, not
	// commit an exchange on incomplete data.
	rt := startRuntime(t, 12, Config{Policy: core.PROPG, Seed: 9}, nil)
	defer rt.Stop()

	rt.mu.Lock()
	a := rt.agents[0]
	rt.mu.Unlock()
	if a == nil {
		t.Fatal("no agent for host 0")
	}
	if _, err := rt.measureFrom(a, 5, 987654); err == nil {
		t.Fatal("relay to measure an absent host succeeded")
	}
	if math.IsNaN(clusterLat(0, 1)) {
		t.Fatal("unreachable")
	}
}

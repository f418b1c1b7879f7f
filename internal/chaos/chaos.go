// Package chaos is the deterministic chaos harness for the live PROP
// runtime: a seed-derived schedule of crash-stops, recoveries, one network
// partition window, and a pressure blast of junk frames, driven over the
// loopback transport against a full propnode.Runtime on one event.Engine,
// with the invariant audits (slot↔host bijection, connectivity among live
// agents, no duplicate slots) evaluated at every quiesce point.
//
// A kill is the runtime's Crash and a recovery its Join of the same host at
// its next incarnation; each quiesce point runs its Repair and
// EnsureConnected before it audits.
//
// Config sets the run's size, seed, length, kill fraction and policy; the
// rest of the schedule's shape is fixed: a step lasts 150 ms of simulated
// time, the partition window opens at Steps/3 for two steps and isolates
// 30% of the hosts, a burst of 4096 TData frames from an endpoint outside
// the overlay lands on one agent at 2·Steps/3, and every link loses and
// duplicates 1% of its messages.
//
// Determinism contract: the schedule is computed from Config.Seed before
// any agent runs, every timer (the agents', the nodes', the steps') fires in
// the engine's simulated time, every delivery is a call on the goroutine
// stepping it, and per-message faults are faults.DeliverStateless link
// hashes. So the Log (the schedule as executed plus each quiesce audit's
// verdict) and the Summary (counters and transport tallies) are pure
// functions of the Config; the CI chaos job diffs both over a double run.
//
// Key types: Config, Result, Run. See DESIGN.md §10 and EXPERIMENTS.md
// ("Chaos schedule knobs").
package chaos

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/overlay"
	"repro/internal/propnode"
	"repro/internal/rng"
	"repro/internal/transport"
)

// pressureHost is the host ID of the harness's own blast endpoint — far
// outside the agent ID space so it can never collide with a runtime host.
const pressureHost = 1 << 20

// The fixed shape of every schedule.
const (
	// stepMS is a step's length in simulated milliseconds.
	stepMS = 150
	// partitionSteps is the partition window length in steps; the window
	// opens at Steps/3.
	partitionSteps = 2
	// partitionFrac is the fraction of hosts isolated on the far side of
	// the cut.
	partitionFrac = 0.3
	// pressureMsgs is the blast size in messages; the blast lands at
	// 2*Steps/3.
	pressureMsgs = 4096
	// lossProb and dupProb are the stateless per-message fault rates on
	// every link.
	lossProb, dupProb = 0.01, 0.01
)

// Config parameterizes one chaos run. Zero values select the defaults noted
// on each field; Validate reports combinations that cannot work.
type Config struct {
	// N is the number of live agents (default 24).
	N int
	// Seed derives the entire schedule and all runtime randomness.
	Seed uint64
	// Steps is the schedule length (default 12). Each step lasts 150 ms of
	// simulated time and ends at a quiesce point: repair, reconnect, audit.
	Steps int
	// KillFrac is the fraction of the initial agents crash-stopped over the
	// run (default 0.25; the acceptance floor is 0.20). Every victim also
	// recovers before the run ends.
	KillFrac float64
	// Policy selects the exchange protocol under test (default PROP-G).
	Policy core.Policy
}

func (c *Config) fill() {
	if c.N == 0 {
		c.N = 24
	}
	if c.Steps == 0 {
		c.Steps = 12
	}
	if c.KillFrac == 0 {
		c.KillFrac = 0.25
	}
}

// Validate reports the first configuration error (after defaulting).
func (c Config) Validate() error {
	c.fill()
	switch {
	case c.N < 8:
		return fmt.Errorf("chaos: N = %d, need >= 8 to survive the schedule", c.N)
	case c.Steps < 6:
		return fmt.Errorf("chaos: Steps = %d, need >= 6 (kill, recover, partition, pressure all need room)", c.Steps)
	case !(c.KillFrac >= 0 && c.KillFrac <= 0.5):
		return fmt.Errorf("chaos: KillFrac = %v out of [0, 0.5]", c.KillFrac)
	}
	return nil
}

// action is one scheduled action, resolved entirely when the schedule is
// built.
type action struct {
	step int
	kind string // "kill" | "recover" | "partition-open" | "partition-close" | "pressure"
	host int    // victim host (kill/recover/pressure), -1 otherwise
}

// schedule is the precomputed plan: pure function of the Config.
type schedule struct {
	events   []action
	isolated []int // hosts on the far side of the partition, sorted
	kills    int
}

// buildSchedule derives the full plan from the seed. Victims and steps are
// chosen with a dedicated RNG before any agent runs, so the plan — and
// therefore the deterministic log — cannot be perturbed by scheduling.
func buildSchedule(cfg Config) schedule {
	r := rng.New(cfg.Seed ^ 0xc4a05)
	hosts := make([]int, cfg.N)
	for i := range hosts {
		hosts[i] = i
	}
	r.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })

	kills := int(float64(float64(cfg.N)*cfg.KillFrac) + 0.5)
	if kills < 1 {
		kills = 1
	}
	var s schedule
	s.kills = kills
	// Kills land in [1, Steps-3]; each recovery 2..3 steps later, capped at
	// the final step — so every corpse is back before the run ends and the
	// final audit sees the full population.
	for i := 0; i < kills; i++ {
		h := hosts[i]
		kill := 1 + r.Intn(cfg.Steps-3)
		rec := kill + 2 + r.Intn(2)
		if rec > cfg.Steps-1 {
			rec = cfg.Steps - 1
		}
		s.events = append(s.events, action{step: kill, kind: "kill", host: h})
		s.events = append(s.events, action{step: rec, kind: "recover", host: h})
	}
	// The partition isolates hosts disjoint from the kill set, so a victim
	// is never simultaneously dead and unreachable (either alone is chaos
	// enough; together they make the log depend on repair timing).
	nIso := int(float64(float64(cfg.N)*partitionFrac) + 0.5)
	if nIso < 1 {
		nIso = 1
	}
	if max := cfg.N - kills; nIso > max {
		nIso = max
	}
	s.isolated = append([]int(nil), hosts[kills:kills+nIso]...)
	sort.Ints(s.isolated)
	s.events = append(s.events,
		action{step: cfg.Steps / 3, kind: "partition-open", host: -1},
		action{step: cfg.Steps/3 + partitionSteps, kind: "partition-close", host: -1},
		action{step: 2 * cfg.Steps / 3, kind: "pressure", host: hosts[cfg.N-1]})

	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].step < s.events[j].step })
	return s
}

// Result is one chaos run's outcome.
type Result struct {
	// Log is the deterministic run record: the schedule as executed plus
	// each quiesce audit's verdict. Byte-identical across runs of the same
	// Config.
	Log string
	// Summary is the run's counters and the transport's tallies (exchanges,
	// evictions, deliveries), byte-identical across runs of the same Config
	// too.
	Summary string
	// Kills, Recovers report the executed schedule size.
	Kills, Recovers int
	// AuditErr is the first quiesce-point audit failure, nil on a clean run.
	AuditErr error
}

// Run executes one chaos schedule and reports the outcome. The only error
// return is a harness failure (bad config, a runtime that refused to start);
// invariant violations land in Result.AuditErr so the caller still gets the
// log that led up to them.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched := buildSchedule(cfg)

	inj, err := faults.NewInjector(faults.Config{Seed: cfg.Seed, LossProb: lossProb, DupProb: dupProb})
	if err != nil {
		return nil, err
	}
	lb := transport.NewLoopback(transport.LoopbackConfig{
		DelayMS: func(a, b int) float64 { return propnode.ClusterLat(a, b) / 2 },
		Faults:  inj,
	})
	net := &cutNet{Loopback: lb, isolated: make(map[int]bool, len(sched.isolated))}
	for _, h := range sched.isolated {
		net.isolated[h] = true
	}
	eng := event.New()
	rt := propnode.New(net, propnode.Config{
		Policy:              cfg.Policy,
		ProbeIntervalMS:     5,
		PingTimeoutMS:       15,
		HeartbeatIntervalMS: 10,
		Lat:                 propnode.ClusterLat,
		Seed:                cfg.Seed,
		Clock:               eng,
	})
	hosts := make([]int, cfg.N)
	for i := range hosts {
		hosts[i] = i
	}
	if err := rt.Start(hosts); err != nil {
		return nil, err
	}

	// The blast endpoint joins the transport but never the overlay: its
	// TData frames are protocol no-ops, each delivered into the victim's
	// node between two of the engine's events.
	blaster, err := lb.Open(pressureHost)
	if err != nil {
		rt.Stop()
		return nil, err
	}
	defer blaster.Close()

	var log strings.Builder
	fmt.Fprintf(&log, "chaos seed=%d n=%d steps=%d kill=%d isolated=%v\n",
		cfg.Seed, cfg.N, cfg.Steps, sched.kills, sched.isolated)

	res := &Result{}
	next := 0
	for step := 1; step <= cfg.Steps; step++ {
		for next < len(sched.events) && sched.events[next].step == step {
			ev := sched.events[next]
			next++
			switch ev.kind {
			case "kill":
				if err := rt.Crash(ev.host); err != nil {
					return nil, fmt.Errorf("chaos: kill host %d: %w", ev.host, err)
				}
				res.Kills++
				fmt.Fprintf(&log, "step %d kill host=%d\n", step, ev.host)
			case "recover":
				if _, err := rt.Join(ev.host); err != nil {
					return nil, fmt.Errorf("chaos: recover host %d: %w", ev.host, err)
				}
				res.Recovers++
				fmt.Fprintf(&log, "step %d recover host=%d\n", step, ev.host)
			case "partition-open":
				net.cut = true
				fmt.Fprintf(&log, "step %d partition-open isolated=%v\n", step, sched.isolated)
			case "partition-close":
				net.cut = false
				fmt.Fprintf(&log, "step %d partition-close\n", step)
			case "pressure":
				for i := 0; i < pressureMsgs; i++ {
					_ = blaster.Send(ev.host, transport.Message{Type: transport.TData})
				}
				fmt.Fprintf(&log, "step %d pressure host=%d msgs=%d\n", step, ev.host, pressureMsgs)
			}
		}
		eng.RunUntil(event.Time(step * stepMS))

		// Quiesce point: repair any remaining corpses, re-bridge components
		// the partition's evictions may have cut, and audit. No event runs
		// between the three, so the audit sees what they left.
		if _, err := rt.Repair(); err != nil {
			return nil, fmt.Errorf("chaos: repair at step %d: %w", step, err)
		}
		rt.EnsureConnected()
		if verdict := auditNow(rt); verdict == "" {
			fmt.Fprintf(&log, "step %d audit ok\n", step)
		} else {
			fmt.Fprintf(&log, "step %d audit FAIL\n", step)
			if res.AuditErr == nil {
				res.AuditErr = fmt.Errorf("chaos: step %d: %s", step, verdict)
			}
		}
	}

	rt.Stop()
	// Post-Stop the overlay is static: one last repair + reconnect clears
	// anything a detector evicted during shutdown, then the final audit must
	// hold unconditionally.
	if _, err := rt.Repair(); err != nil {
		return nil, fmt.Errorf("chaos: final repair: %w", err)
	}
	rt.EnsureConnected()
	if verdict := auditNow(rt); verdict == "" {
		log.WriteString("final audit ok\n")
	} else {
		log.WriteString("final audit FAIL\n")
		if res.AuditErr == nil {
			res.AuditErr = fmt.Errorf("chaos: final audit: %s", verdict)
		}
	}
	res.Log = log.String()

	c := rt.Counters()
	stats := lb.Stats()
	res.Summary = fmt.Sprintf(
		"probes=%d exchanges=%d walk-failures=%d heartbeats=%d suspect-evictions=%d auto-repairs=%d recovers=%d stale-epochs=%d | sent=%d dropped=%d dups=%d cut=%d",
		c.Probes, c.Exchanges, c.WalkFailures, c.Heartbeats, c.SuspectEvictions,
		c.AutoRepairs, c.Recovers, c.StaleEpochs,
		stats.Sent, stats.Dropped, stats.Dups, net.drops)
	return res, nil
}

// auditNow evaluates the quiesce-point invariants; "" means all hold.
// Bijection and no-duplicate-slot are both CheckInvariants' business (a
// duplicate slot is exactly a bijection violation); connectivity over live
// slots is its own predicate.
func auditNow(rt *propnode.Runtime) string {
	var verdict string
	rt.View(func(o *overlay.Overlay) {
		au := audit.New(1, 16)
		au.Register(audit.OverlayBijection(o), audit.OverlayConnected(o))
		au.CheckNow()
		if err := au.Err(); err != nil {
			verdict = err.Error()
		}
	})
	return verdict
}

// cutNet is the loopback with the partition window's cut: while cut is set,
// every message between an isolated host and one that is not vanishes,
// counted in drops. The engine's one goroutine reads and writes both.
type cutNet struct {
	*transport.Loopback
	isolated map[int]bool
	cut      bool
	drops    uint64
}

type cutEndpoint struct {
	transport.Endpoint
	net *cutNet
}

func (n *cutNet) Open(host int) (transport.Endpoint, error) {
	ep, err := n.Loopback.Open(host)
	if err != nil {
		return nil, err
	}
	return cutEndpoint{ep, n}, nil
}

func (e cutEndpoint) Send(to int, m transport.Message) error {
	if n := e.net; n.cut && n.isolated[e.Host()] != n.isolated[to] {
		n.drops++
		return nil
	}
	return e.Endpoint.Send(to, m)
}

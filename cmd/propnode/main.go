// Command propnode runs the live PROP runtime outside the test harness.
//
// Four modes:
//
//	propnode                     # loopback demo: N agents optimize a
//	                             # clustered topology over the in-process
//	                             # transport, then print the improvement
//	propnode -mode chaos -seed 7 # seed-deterministic chaos soak: kills,
//	                             # recoveries, a partition window, mailbox
//	                             # pressure; deterministic log on stdout
//	propnode -mode udp-echo -bind 127.0.0.1:9753
//	                             # answer pings over real UDP until -dur
//	propnode -mode udp-ping -peer 127.0.0.1:9753 -count 5
//	                             # ping a udp-echo peer and print wall RTTs
//
// The loopback demo is the quick-start of DESIGN.md §10; the two UDP modes
// pair up as the two-process smoke test CI runs on localhost, and the chaos
// mode is the CI chaos job's soak (run twice, logs diffed — see
// EXPERIMENTS.md "Chaos schedule knobs").
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/propnode"
	"repro/internal/transport"
)

func main() {
	var (
		mode     = flag.String("mode", "loopback", "loopback | chaos | udp-echo | udp-ping")
		n        = flag.Int("n", 16, "loopback/chaos: number of agents")
		dur      = flag.Duration("dur", 2*time.Second, "how long to run (loopback demo, udp-echo lifetime)")
		policy   = flag.String("policy", "propg", "loopback/chaos: propg | propo")
		seed     = flag.Uint64("seed", 1, "loopback/chaos: runtime seed")
		interval = flag.Float64("interval", 5, "loopback: probe interval INIT_TIMER in ms")
		bind     = flag.String("bind", "127.0.0.1:0", "udp-echo: address to bind")
		peer     = flag.String("peer", "", "udp-ping: peer address to ping")
		count    = flag.Int("count", 5, "udp-ping: number of pings")
		steps    = flag.Int("steps", 0, "chaos: schedule length in steps (0 = default)")
		stepMS   = flag.Float64("step-ms", 0, "chaos: step length in ms (0 = default)")
		killFrac = flag.Float64("kill-frac", 0, "chaos: fraction of agents killed (0 = default 0.25)")
	)
	flag.Parse()

	var err error
	switch *mode {
	case "loopback":
		err = runLoopback(*n, *dur, *policy, *seed, *interval)
	case "chaos":
		err = runChaos(*n, *policy, *seed, *steps, *stepMS, *killFrac)
	case "udp-echo":
		err = runUDPEcho(*bind, *dur)
	case "udp-ping":
		err = runUDPPing(*peer, *count)
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "propnode:", err)
		os.Exit(1)
	}
}

// runChaos executes one seeded chaos schedule. The deterministic log goes to
// stdout (CI diffs it across a double run); the wall-clock-dependent counter
// summary goes to stderr so it can never pollute the determinism contract.
func runChaos(n int, policyName string, seed uint64, steps int, stepMS, killFrac float64) error {
	var policy core.Policy
	switch policyName {
	case "propg":
		policy = core.PROPG
	case "propo":
		policy = core.PROPO
	default:
		return fmt.Errorf("unknown -policy %q", policyName)
	}
	res, err := chaos.Run(chaos.Config{
		N:        n,
		Seed:     seed,
		Steps:    steps,
		StepMS:   stepMS,
		KillFrac: killFrac,
		Policy:   policy,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Log)
	fmt.Fprintf(os.Stderr, "chaos: %d kills, %d recovers\nchaos summary: %s\n",
		res.Kills, res.Recovers, res.Summary)
	return res.AuditErr
}

func runLoopback(n int, dur time.Duration, policyName string, seed uint64, intervalMS float64) error {
	var policy core.Policy
	switch policyName {
	case "propg":
		policy = core.PROPG
	case "propo":
		policy = core.PROPO
	default:
		return fmt.Errorf("unknown -policy %q", policyName)
	}
	lb := transport.NewLoopback(transport.LoopbackConfig{
		DelayMS: func(a, b int) float64 { return propnode.ClusterLat(a, b) / 2 },
	})
	rt := propnode.New(lb, propnode.Config{
		Policy:          policy,
		ProbeIntervalMS: intervalMS,
		Lat:             propnode.ClusterLat,
		Seed:            seed,
	})
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	if err := rt.Start(hosts); err != nil {
		return err
	}
	var before float64
	rt.View(func(o *overlay.Overlay) { before = o.MeanLinkLatency() })
	fmt.Printf("loopback: %d agents, %s, INIT_TIMER %.0fms, running %v\n", n, policy, intervalMS, dur)
	time.Sleep(dur)
	rt.Stop()

	o := rt.Overlay()
	after := o.MeanLinkLatency()
	c := rt.Counters()
	fmt.Printf("probes %d  exchanges %d  rejected %d  walk-failures %d\n",
		c.Probes, c.Exchanges, c.Rejected, c.WalkFailures)
	fmt.Printf("mean link latency: %.3fms -> %.3fms\n", before, after)
	if err := o.CheckInvariants(); err != nil {
		return fmt.Errorf("overlay invariants violated: %w", err)
	}
	fmt.Println("overlay invariants: ok")
	return nil
}

func runUDPEcho(bind string, dur time.Duration) error {
	host, port, err := splitHostPort(bind)
	if err != nil {
		return err
	}
	net := transport.NewUDPNetwork(host)
	ep, err := net.OpenAt(1, port)
	if err != nil {
		return err
	}
	node := transport.NewNode(ep)
	defer node.Close()
	addr, _ := net.Addr(1)
	fmt.Printf("udp-echo: host 1 listening on %s for %v\n", addr, dur)
	time.Sleep(dur)
	s := node.Stats()
	fmt.Printf("udp-echo: done (answered traffic; %d stale replies absorbed)\n", s.StaleReplies)
	return nil
}

func runUDPPing(peer string, count int) error {
	if peer == "" {
		return fmt.Errorf("udp-ping needs -peer host:port")
	}
	net := transport.NewUDPNetwork("")
	ep, err := net.Open(2)
	if err != nil {
		return err
	}
	if err := net.AddPeer(1, peer); err != nil {
		return err
	}
	node := transport.NewNode(ep)
	defer node.Close()
	for i := 0; i < count; i++ {
		rtt, err := node.Ping(1, time.Second, 3)
		if err != nil {
			return fmt.Errorf("ping %d to %s: %w", i+1, peer, err)
		}
		fmt.Printf("ping %d: %.3fms\n", i+1, rtt)
	}
	fmt.Printf("udp-ping: %d/%d pings answered by %s\n", count, count, peer)
	return nil
}

// splitHostPort splits "ip:port", tolerating a bare ip (port 0).
func splitHostPort(s string) (host string, port int, err error) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ':' {
			host = s[:i]
			_, err = fmt.Sscanf(s[i+1:], "%d", &port)
			if err != nil {
				return "", 0, fmt.Errorf("bad address %q: %v", s, err)
			}
			return host, port, nil
		}
	}
	return s, 0, nil
}

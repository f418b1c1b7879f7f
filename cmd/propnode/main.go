// Command propnode runs the live PROP runtime outside the test harness.
//
// Two modes:
//
//	propnode                     # loopback demo: N agents optimize a
//	                             # clustered topology over the in-process
//	                             # transport, then print the improvement
//	propnode -mode chaos -seed 7 # seed-deterministic chaos soak: kills,
//	                             # recoveries, a partition window, a burst
//	                             # of junk frames; deterministic log on stdout
//
// The loopback demo is the quick-start of DESIGN.md §10, and the chaos
// mode is the CI chaos job's soak (run twice, logs diffed — see
// EXPERIMENTS.md "Chaos schedule knobs"). A flag the chosen mode does not
// read is an error that names the mode reading it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/propnode"
	"repro/internal/transport"
)

// onlyIn names the one mode that reads each mode-specific flag; -n,
// -policy and -seed apply to both.
var onlyIn = map[string]string{
	"dur":       "loopback",
	"interval":  "loopback",
	"steps":     "chaos",
	"step-ms":   "chaos",
	"kill-frac": "chaos",
}

func main() {
	var (
		mode     = flag.String("mode", "loopback", "loopback | chaos")
		n        = flag.Int("n", 16, "loopback/chaos: number of agents")
		dur      = flag.Duration("dur", 2*time.Second, "loopback: how long to run")
		policy   = flag.String("policy", "propg", "loopback/chaos: propg | propo")
		seed     = flag.Uint64("seed", 1, "loopback/chaos: runtime seed")
		interval = flag.Float64("interval", 5, "loopback: probe interval INIT_TIMER in ms")
		steps    = flag.Int("steps", 0, "chaos: schedule length in steps (0 = default)")
		stepMS   = flag.Float64("step-ms", 0, "chaos: step length in ms (0 = default)")
		killFrac = flag.Float64("kill-frac", 0, "chaos: fraction of agents killed (0 = default 0.25)")
	)
	flag.Parse()

	err := checkFlags(*mode)
	var pol core.Policy
	if err == nil {
		pol, err = parsePolicy(*policy)
	}
	if err == nil {
		if *mode == "chaos" {
			err = runChaos(*n, pol, *seed, *steps, *stepMS, *killFrac)
		} else {
			err = runLoopback(*n, *dur, pol, *seed, *interval)
		}
	}
	if err != nil {
		// internal/propnode's own errors already carry the prefix.
		fmt.Fprintln(os.Stderr, "propnode:", strings.TrimPrefix(err.Error(), "propnode: "))
		os.Exit(1)
	}
}

// checkFlags rejects an unknown mode and every flag set on the command line
// that mode does not read, naming the mode that does.
func checkFlags(mode string) error {
	if mode != "loopback" && mode != "chaos" {
		return fmt.Errorf("unknown -mode %q (want loopback or chaos)", mode)
	}
	var errs []error
	flag.Visit(func(f *flag.Flag) {
		if m, ok := onlyIn[f.Name]; ok && m != mode {
			errs = append(errs, fmt.Errorf("-mode %s does not read -%s (only -mode %s does)", mode, f.Name, m))
		}
	})
	return errors.Join(errs...)
}

// parsePolicy maps the -policy value to its core.Policy.
func parsePolicy(name string) (core.Policy, error) {
	switch name {
	case "propg":
		return core.PROPG, nil
	case "propo":
		return core.PROPO, nil
	}
	return 0, fmt.Errorf("unknown -policy %q (want propg or propo)", name)
}

// runChaos executes one seeded chaos schedule. The deterministic log goes to
// stdout (CI diffs it across a double run); the wall-clock-dependent counter
// summary goes to stderr so it can never pollute the determinism contract.
func runChaos(n int, policy core.Policy, seed uint64, steps int, stepMS, killFrac float64) error {
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

func runLoopback(n int, dur time.Duration, policy core.Policy, seed uint64, intervalMS float64) error {
	if n < 2 {
		return fmt.Errorf("-n = %d, want >= 2", n)
	}
	if dur <= 0 {
		return fmt.Errorf("-dur = %v, want > 0", dur)
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
	// Messages per probe cycle is every message the loopback carried —
	// walks, measurements and heartbeats alike — over the cycles run.
	fmt.Printf("probes %d  exchanges %d  rejected %d  walk-failures %d  measure-failures %d  stale %d  heartbeats %d  msgs-per-probe %.1f\n",
		c.Probes, c.Exchanges, c.Rejected, c.WalkFailures, c.MeasureFailures, c.Stale,
		c.Heartbeats, float64(lb.Stats().Sent)/float64(max(c.Probes, 1)))
	fmt.Printf("mean link latency: %.3fms -> %.3fms\n", before, after)
	if err := o.CheckInvariants(); err != nil {
		return fmt.Errorf("overlay invariants violated: %w", err)
	}
	fmt.Println("overlay invariants: ok")
	return nil
}

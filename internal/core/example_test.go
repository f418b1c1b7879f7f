package core_test

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gnutella"
	"repro/internal/rng"
)

// Example shows the minimal PROP-G workflow: build an overlay, run the
// protocol on a simulated clock, observe the latency improvement.
func Example() {
	r := rng.New(1)
	// Machines live at positions on a line; latency is distance.
	lat := func(a, b int) float64 { return math.Abs(float64(a - b)) }
	hosts := r.Perm(1000)[:100]
	o, _ := gnutella.Build(hosts, gnutella.DefaultConfig(), lat, r)

	before := o.MeanLinkLatency()
	p, _ := core.New(o, core.DefaultConfig(core.PROPG), r.Split())
	e := event.New()
	p.Start(e)
	e.RunUntil(30 * 60000) // 30 simulated minutes

	fmt.Printf("improved: %v\n", o.MeanLinkLatency() < before)
	fmt.Printf("connected: %v\n", o.Connected())
	// Output:
	// improved: true
	// connected: true
}

// ExampleProtocol_Trace shows observing individual exchanges.
func ExampleProtocol_Trace() {
	r := rng.New(7)
	lat := func(a, b int) float64 { return math.Abs(float64(a - b)) }
	hosts := r.Perm(500)[:60]
	o, _ := gnutella.Build(hosts, gnutella.DefaultConfig(), lat, r)
	p, _ := core.New(o, core.DefaultConfig(core.PROPO), r.Split())

	gains := 0.0
	p.Trace = func(ev core.CycleEvent) {
		if ev.Reason == core.Exchanged {
			gains += ev.Var
		}
	}
	e := event.New()
	p.Start(e)
	e.RunUntil(20 * 60000)

	fmt.Printf("every exchange gained: %v\n", gains > 0 && p.Counters.Exchanges > 0)
	// Output:
	// every exchange gained: true
}

// ExampleConfig_Validate shows the parameter checks.
func ExampleConfig_Validate() {
	cfg := core.DefaultConfig(core.PROPO)
	fmt.Println(cfg.Validate())
	cfg.NHops = 0
	fmt.Println(cfg.Validate() != nil)
	// Output:
	// <nil>
	// true
}

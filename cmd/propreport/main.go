// Command propreport runs every registered experiment and emits a single
// Markdown reproduction report — the regenerable core of EXPERIMENTS.md.
//
// Usage:
//
//	propreport [-seed 1] [-trials 3] [-scale 1.0] [-only fig5a,fig7] > report.md
//	propreport -only fig5a -metrics-out fig5a.jsonl > report.md
//
// The -metrics/-metrics-out flags attach the observability stream from
// DESIGN.md §8 to the report run, so a reproduction report and its raw
// metrics come from the same simulation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

func main() {
	var (
		seed       = flag.Uint64("seed", 1, "deterministic seed")
		trials     = flag.Int("trials", 3, "independent trials to average")
		scale      = flag.Float64("scale", 1.0, "scale factor in (0,1]")
		only       = flag.String("only", "", "comma-separated experiment ids (default: all)")
		metricsOn  = flag.Bool("metrics", false, "collect the observability metrics stream (implied by -metrics-out)")
		metricsOut = flag.String("metrics-out", "", "write the metrics stream as JSONL to this file")
	)
	flag.Parse()

	ids := experiment.IDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	opt := experiment.Options{Seed: *seed, Trials: *trials, Scale: *scale}
	// Reject bad arguments before the report's first byte.
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		if err := experiment.Check(ids[i], opt); err != nil {
			fmt.Fprintf(os.Stderr, "propreport: %s: %v\n", ids[i], err)
			os.Exit(1)
		}
	}

	collect := *metricsOn || *metricsOut != ""
	var jsonlW *os.File
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "propreport: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		jsonlW = f
	}

	fmt.Printf("# PROP reproduction report\n\n")
	fmt.Printf("Generated by `propreport` — seed %d, %d trials, scale %.2f, %s.\n\n",
		*seed, *trials, *scale, time.Now().UTC().Format(time.RFC3339))
	fmt.Printf("Paper: *Towards Location-aware Topology in both Unstructured and "+
		"Structured P2P Systems* (ICPP 2007). %d experiments.\n\n", len(ids))

	for _, id := range ids {
		var reg *obs.Registry
		if collect {
			reg = obs.New(obs.NewManifest(id, *seed, *trials, *scale))
		}
		opt.Metrics = reg
		start := time.Now()
		res, err := experiment.Run(id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "propreport: %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := res.WriteMarkdown(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "propreport: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("_(completed in %v)_\n\n", time.Since(start).Round(time.Millisecond))
		if jsonlW != nil {
			if err := reg.WriteJSONL(jsonlW); err != nil {
				fmt.Fprintf(os.Stderr, "propreport: metrics jsonl: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

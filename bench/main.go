// Command bench is the repository's one performance ledger (README.md): four
// long fixed-work workloads, seven end-to-end metrics, and a per-layer trace.
//
//	go run -C bench . --workload gnutella-flood --seed 1 --seconds 12 --trace 0
//	go run -C bench . --workload gnutella-flood --trace 1   # per-layer numbers
//	go run -C bench . --selfcheck 5                          # is the ledger steady here?
//
// It prints every metric by name and unit, checks the outputs (a failed check
// fails the command) and ends with one JSON result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: gnutella-flood, chord-faults, shard-262k-faults or live-loopback")
	seed := flag.Uint64("seed", 1, "inputs are a pure function of the seed")
	seconds := flag.Float64("seconds", frozenSeconds, "run length the fixed work is sized for; the frozen sizes are tuned to 12")
	trace := flag.Int("trace", 0, "1: traced pass, per-layer metrics, trace file in out/; 0: end-to-end metrics")
	selfcheck := flag.Int("selfcheck", 0, "run two interleaved sets of N passes of every workload and compare them against the bounds")
	spec := flag.Bool("spec", false, "print BENCHMARK.json from the driver's metric and workload tables")
	flag.Parse()

	if *spec {
		if err := printSpec(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *selfcheck > 0 {
		if !runSelfcheck(os.Stdout, *selfcheck, *seed, *seconds) {
			os.Exit(1)
		}
		return
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload <name> with --seconds > 0 and --trace 0|1 (or --selfcheck N); workloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-18s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	res, err := runWorkload(wl, *seed, *seconds, *trace == 1, "out")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// printResult prints the pass's metrics by name and unit, the sim_digest,
// and the JSON result line: the end-to-end metrics of an untraced pass, the
// per-layer metrics of a traced one.
func printResult(w io.Writer, res *passResult) error {
	specs, values := endToEnd, res.e2e
	if res.traced {
		specs, values = perLayer, res.layer
	}
	fmt.Fprintf(w, "workload %s seed %d traced %v\n", res.workload, res.seed, res.traced)
	line := resultLine{Correct: true, Attempted: res.out.ops, Failed: res.out.opsFailed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		fmt.Fprintf(w, "  %-28s %16.6f %s\n", m.Name, values[m.Name], m.Unit)
		line.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	if res.traced {
		names := make([]string, 0, len(res.e2e))
		for n := range res.e2e {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  (untraced) %-17s %16.6f\n", n, res.e2e[n])
		}
		layers := make([]string, 0, len(res.self))
		for l := range res.self {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return res.self[layers[i]] > res.self[layers[j]] })
		for _, l := range layers {
			fmt.Fprintf(w, "  (run-phase self time) %-6s %12.6f s\n", l, res.self[l])
		}
	}
	if res.out.hasDigest {
		fmt.Fprintf(w, "sim_digest %016x\n", res.out.digest)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printSpec prints BENCHMARK.json from the driver's own tables, so the file
// the acceptance driver reads is generated, not typed.
func printSpec(w io.Writer) error {
	type workloadSpec struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"}, RunSeconds: frozenSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, wl := range workloads {
		spec.Workloads = append(spec.Workloads, workloadSpec{wl.name, wl.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

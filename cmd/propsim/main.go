// Command propsim runs the paper-reproduction experiments and prints the
// series each figure plots.
//
// Usage:
//
//	propsim -list
//	propsim -exp fig5a [-seed 1] [-trials 3] [-scale 1.0]
//	propsim -exp all [-scale 0.5]
//
// Robustness (DESIGN.md §9, the figR* family):
//
//	propsim -exp figR -loss 0.05             # collapse the loss sweep to {0, 5%}
//	propsim -exp figR -crash 0.10            # collapse the crash sweep to {0, 10%}
//	propsim -exp figRc -partition 300000     # 5-minute partition window
//
// A flag passed to an experiment that does not consume it (-loss, -crash,
// -partition, -al-mode, -scale-n, -shards) is an error, not a silent no-op.
//
// Scaling (DESIGN.md §12, SCALING.md):
//
//	propsim -exp fig5a-scale                             # full ladder to 10^6 peers
//	propsim -exp fig5a-scale -scale-n 100000 -metrics-out scale.jsonl
//	propsim -exp fig5a-scale -shards 4                   # same bytes, different wall time
//	propsim -exp fig5a-scale -loss 0.02 -crash 0.1       # faults on every rung
//	propsim -exp figR-scale -scale-n 100000 -loss 0.05 -crash 0.1   # fault sweeps at scale
//
// Observability (DESIGN.md §8, EXPERIMENTS.md "Metrics streams"):
//
//	propsim -exp fig5a -metrics -metrics-out fig5a.jsonl [-metrics-csv fig5a.csv]
//	propsim -exp fig5a -al-mode exact -metrics-out fig5a.jsonl          # eq. (3) AL series
//	propsim -exp churn -al-mode sketch -metrics-out churn.jsonl         # AL ± stderr, unreachable counter
//	propsim -exp fig5a -metrics-wall -metrics-out fig5a.jsonl   # + wall-clock spans
//	propsim -exp all -scale 0.5 -pprof localhost:6060           # live pprof/expvar
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// liveRegistry exposes the registry of the experiment currently running to
// the expvar endpoint, so `curl :6060/debug/vars | jq .prop_metrics` shows
// counter totals while a long run is in flight.
var liveRegistry atomic.Pointer[obs.Registry]

func main() {
	var (
		expID  = flag.String("exp", "", "experiment id (or 'all')")
		seed   = flag.Uint64("seed", 1, "deterministic seed")
		trials = flag.Int("trials", 3, "independent trials to average")
		scale  = flag.Float64("scale", 1.0, "scale factor in (0,1]: shrinks node counts and workloads")
		list   = flag.Bool("list", false, "list available experiments")
		format = flag.String("format", "table", "output format: table | csv | json")
		plot   = flag.Bool("plot", false, "render an ASCII chart after the table")

		alMode = flag.String("al-mode", "", "record the eq. (3) average-latency series in the fig5a/fig5b/fig5c/churn metrics streams: exact | sketch (empty = off, byte-identical output); rejected by other experiments")

		scaleN = flag.Int("scale-n", 0, "fig5a-scale/figR-scale: cap the peer ladder at this n (0 = full ladder to 1e6); rejected by other experiments")
		shards = flag.Int("shards", 0, "fig5a-scale/figR-scale: parallel engines in the sharded simulator (0 = one per transit domain); any value yields byte-identical streams; rejected by other experiments")

		faultLoss  = flag.Float64("loss", 0, "message-loss probability: collapses the figR/figR-scale loss sweep to {0, value}, attaches loss+dup+jitter to every fig5a-scale rung; rejected by other experiments (0 = default)")
		faultCrash = flag.Float64("crash", 0, "crash-stop fraction: collapses the figR/figR-scale crash sweep to {0, value}, attaches churn to every fig5a-scale rung; rejected by other experiments (0 = default)")
		faultPart  = flag.Float64("partition", 0, "partition window length in simulated ms for figRc/figR-scale/fig5a-scale; rejected by other experiments (0 = default)")

		metricsOn   = flag.Bool("metrics", false, "collect the observability metrics stream (implied by -metrics-out/-metrics-csv)")
		metricsOut  = flag.String("metrics-out", "", "write the metrics stream as JSONL to this file ('-' = stdout)")
		metricsCSV  = flag.String("metrics-csv", "", "write the plottable metrics records as CSV to this file")
		metricsWall = flag.Bool("metrics-wall", false, "include wall-clock fields (span wall_ms, manifest unix_time) in the metrics stream; forfeits byte-determinism")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof and expvar (with live metrics snapshots) on this address, e.g. localhost:6060")
	)
	flag.Parse()

	// Reject a mistyped -format here, not in the output switch after the
	// first experiment has already been simulated.
	if !validFormat(*format) {
		fmt.Fprintf(os.Stderr, "propsim: unknown format %q (want table, csv or json)\n", *format)
		os.Exit(2)
	}

	if *list || *expID == "" {
		fmt.Println("available experiments:")
		ids := experiment.IDs()
		width := len(slices.MaxFunc(ids, func(a, b string) int { return len(a) - len(b) }))
		for _, id := range ids {
			fmt.Printf("  %-*s %s\n", width, id, experiment.Describe(id))
		}
		if *expID == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nerror: -exp required")
			os.Exit(2)
		}
		return
	}

	if *pprofAddr != "" {
		expvar.Publish("prop_metrics", expvar.Func(func() interface{} {
			return liveRegistry.Load().Snapshot()
		}))
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "propsim: pprof endpoint: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "propsim: pprof/expvar on http://%s/debug/pprof and /debug/vars\n", *pprofAddr)
	}

	collect := *metricsOn || *metricsOut != "" || *metricsCSV != "" || *metricsWall
	jsonlW := openOut(*metricsOut, collect && *metricsOut != "")
	csvW := openOut(*metricsCSV, collect && *metricsCSV != "")
	defer closeOut(jsonlW)
	defer closeOut(csvW)
	if collect && jsonlW == nil && csvW == nil {
		jsonlW = os.Stdout // -metrics alone streams JSONL to stdout after the tables
	}

	ids := []string{*expID}
	if *expID == "all" {
		ids = experiment.IDs()
	}
	opt := experiment.Options{
		Seed: *seed, Trials: *trials, Scale: *scale,
		FaultLoss: *faultLoss, FaultCrash: *faultCrash, FaultPartitionMS: *faultPart,
		ALMode: *alMode, ScaleMaxN: *scaleN, Shards: *shards,
	}
	firstCSV := true
	for _, id := range ids {
		var reg *obs.Registry
		if collect {
			man := obs.NewManifest(id, *seed, *trials, *scale)
			man.Flags = map[string]string{}
			// Optional knobs enter the manifest only when set, so the streams
			// of runs that leave them alone stay byte-identical to their
			// historical output.
			if *faultLoss > 0 {
				man.Flags["loss"] = strconv.FormatFloat(*faultLoss, 'g', -1, 64)
			}
			if *faultCrash > 0 {
				man.Flags["crash"] = strconv.FormatFloat(*faultCrash, 'g', -1, 64)
			}
			if *faultPart > 0 {
				man.Flags["partition"] = strconv.FormatFloat(*faultPart, 'g', -1, 64)
			}
			if *alMode != "" {
				man.Flags["al-mode"] = *alMode
			}
			if *scaleN > 0 {
				man.Flags["scale-n"] = strconv.Itoa(*scaleN)
			}
			if *shards > 0 {
				man.Flags["shards"] = strconv.Itoa(*shards)
			}
			reg = obs.New(man)
			if *metricsWall {
				reg.EnableWallClock()
				man.UnixTime = time.Now().Unix()
				reg.SetManifest(man)
			}
			liveRegistry.Store(reg)
		}
		opt.Metrics = reg

		start := time.Now()
		res, err := experiment.Run(id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "propsim: %s: %v\n", id, err)
			os.Exit(1)
		}
		switch *format {
		case "table":
			res.Render(os.Stdout)
			if *plot {
				res.Plot(os.Stdout, 72, 18)
			}
			// Wall time goes to stderr, so stdout compares with cmp in every format.
			fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", id, time.Since(start).Round(time.Millisecond))
			fmt.Println()
		case "csv":
			if err := res.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "propsim: csv: %v\n", err)
				os.Exit(1)
			}
		case "json":
			if err := res.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "propsim: json: %v\n", err)
				os.Exit(1)
			}
		}

		if jsonlW != nil {
			if err := reg.WriteJSONL(jsonlW); err != nil {
				fmt.Fprintf(os.Stderr, "propsim: metrics jsonl: %v\n", err)
				os.Exit(1)
			}
		}
		if csvW != nil {
			emit := reg.AppendCSV
			if firstCSV {
				emit = reg.WriteCSV
				firstCSV = false
			}
			if err := emit(csvW); err != nil {
				fmt.Fprintf(os.Stderr, "propsim: metrics csv: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// validFormat reports whether f is a -format value the output switch in
// main handles.
func validFormat(f string) bool {
	switch f {
	case "table", "csv", "json":
		return true
	}
	return false
}

// openOut opens path for writing when enabled; "-" means stdout.
func openOut(path string, enabled bool) *os.File {
	if !enabled || path == "" {
		return nil
	}
	if path == "-" {
		return os.Stdout
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "propsim: %v\n", err)
		os.Exit(1)
	}
	return f
}

// closeOut closes a file opened by openOut (never stdout).
func closeOut(f *os.File) {
	if f != nil && f != os.Stdout {
		f.Close()
	}
}

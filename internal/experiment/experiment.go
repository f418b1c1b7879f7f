// Package experiment defines one runnable reproduction per figure of the
// paper's evaluation (§5), plus the overhead and churn analyses promised in
// §4.3 and a combination study (§1, §6: "combining them with other recent
// mechanisms will further improve their performance").
//
// Every experiment is deterministic in (Seed, Trials, Scale) and returns a
// Result holding the same series the paper plots. Trials run in parallel —
// each on its own physical network, overlay, and RNG stream — and are
// averaged point-wise.
//
// Key types: Options — seed, trials, scale, oracle memory modes, and the
// optional obs.Registry for the DESIGN.md §8 metrics stream — and Result.
// The per-figure index is DESIGN.md §2; measured outcomes are in
// EXPERIMENTS.md.
package experiment

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Options controls an experiment run.
type Options struct {
	// Seed selects the deterministic RNG universe. Default 1.
	Seed uint64
	// Trials is the number of independent repetitions averaged. Default 3.
	Trials int
	// Scale in (0,1] shrinks node counts and workload sizes for quick runs
	// (benchmarks, -short tests). 1.0 reproduces the paper's scale.
	Scale float64
	// Audit attaches the online invariant auditor (internal/audit) to every
	// simulated run of the experiments that support it (fig5*, fig6*):
	// overlay bijection/connectivity, PROP-G topology freezing, and DHT
	// well-formedness are checked on the sampled protocol event stream
	// (every event under -tags auditstrict). One summary line per trial is
	// appended to Result.Notes; any violation fails the run.
	Audit bool
	// FaultLoss, FaultCrash, and FaultPartitionMS parameterize the
	// fault-aware experiments (cmd/propsim -loss/-crash/-partition). Zero
	// keeps each experiment's default: a non-zero FaultLoss or FaultCrash
	// collapses the figRa/figRb/figR-scale sweeps to {0, value} and attaches
	// the corresponding fault schedule to fig5a-scale; a non-zero
	// FaultPartitionMS sets the partition-window length (figRc, figR-scale,
	// fig5a-scale). Run rejects a non-zero override for any experiment that
	// does not consume it — a set fault knob is never silently ignored.
	FaultLoss        float64
	FaultCrash       float64
	FaultPartitionMS float64
	// ALMode adds the paper's eq. (3) average-latency series ("al_ms") to
	// the metrics stream of the experiments that maintain a live overlay
	// (fig5*, churn): ALModeExact refloods at every sample point,
	// ALModeIncremental delta-maintains the value with a metrics.ALTracker,
	// ALModeSketch estimates from k source rows (skipping unreachable pairs
	// and counting them in "al.unreachable"). Empty — the default — keeps
	// the AL machinery detached and every output byte-identical to before.
	ALMode string
	// ScaleMaxN caps the fig5a-scale peer ladder (cmd/propsim -scale-n):
	// rungs above it are dropped and the top rung becomes exactly this value
	// (further shrunk by Scale). 0 means the full ladder to 10^6. The other
	// experiments ignore it.
	ScaleMaxN int
	// Shards sets the sharded engine's parallel engine count for fig5a-scale
	// (cmd/propsim -shards); 0 means one engine per transit domain. The
	// metrics stream is byte-identical for every admissible value (the
	// internal/shard determinism contract), so this is purely a wall-clock
	// knob. The other experiments ignore it.
	Shards int
	// Metrics, when non-nil, switches the observability layer on: the
	// instrumented experiments (fig5*, fig6*, fig7, churn) record per-trial
	// phase spans, sim-clock time series of the protocol/overlay/back-off
	// state, exchange histograms, and oracle cache counters into this
	// registry (DESIGN.md §8). Nil — the default — keeps every
	// instrumentation site on its no-op path.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trials <= 0 {
		o.Trials = 3
	}
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	return o
}

// scaled shrinks n by the scale factor with a floor.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// Result is the reproduced figure or table.
type Result struct {
	// ID is the experiment identifier (e.g. "fig5a").
	ID string
	// Title restates the paper artifact.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds one curve per line of the figure.
	Series []stats.Series
	// Notes carries reproduction commentary (scale, substitutions, the
	// qualitative checks that passed).
	Notes []string
}

// Render writes the result as a fixed-width table: one row per x value, one
// column per series.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Series) == 0 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	// Collect the union of x values.
	xset := map[float64]bool{}
	for _, s := range r.Series {
		for _, x := range s.X {
			xset[x] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	header := fmt.Sprintf("%12s", r.XLabel)
	for _, s := range r.Series {
		header += fmt.Sprintf("  %18s", s.Label)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, x := range xs {
		row := fmt.Sprintf("%12.3g", x)
		for _, s := range r.Series {
			y := s.YAt(x)
			if math.IsNaN(y) {
				row += fmt.Sprintf("  %18s", "-")
			} else {
				row += fmt.Sprintf("  %18.3f", y)
			}
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintf(w, "(y axis: %s)\n", r.YLabel)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// runner executes one experiment.
type runner struct {
	describe string
	run      func(Options) (*Result, error)
	// faults declares which fault overrides the experiment consumes; Run
	// rejects any set override outside this set instead of silently
	// dropping it.
	faults faultFlagSet
}

// faultFlagSet declares which of the fault-override options an experiment
// consumes (Options.FaultLoss, FaultCrash, FaultPartitionMS — the propsim
// -loss/-crash/-partition flags).
type faultFlagSet uint8

const (
	consumesLoss faultFlagSet = 1 << iota
	consumesCrash
	consumesPartition

	consumesAllFaults = consumesLoss | consumesCrash | consumesPartition
)

// checkFaultFlags rejects fault overrides the experiment would silently
// ignore. Before this guard, `propsim -exp fig5b -loss 0.05` ran the
// fault-free experiment and reported clean results as if the faults had
// been applied.
func checkFaultFlags(id string, accepts faultFlagSet, opt Options) error {
	var ignored []string
	if opt.FaultLoss != 0 && accepts&consumesLoss == 0 {
		ignored = append(ignored, "-loss")
	}
	if opt.FaultCrash != 0 && accepts&consumesCrash == 0 {
		ignored = append(ignored, "-crash")
	}
	if opt.FaultPartitionMS != 0 && accepts&consumesPartition == 0 {
		ignored = append(ignored, "-partition")
	}
	if len(ignored) == 0 {
		return nil
	}
	return fmt.Errorf("experiment: %s does not consume %s (fault overrides apply to: %s)",
		id, strings.Join(ignored, "/"), strings.Join(faultAwareIDs(), ", "))
}

// faultAwareIDs lists the experiments consuming at least one fault
// override, sorted.
func faultAwareIDs() []string {
	var ids []string
	for id, r := range registry {
		if r.faults != 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

var registry = map[string]runner{
	"fig5a":       {describe: "Fig. 5(a): PROP-G in Gnutella, lookup latency vs time, varying TTL", run: runFig5a},
	"fig5a-scale": {describe: "Fig. 5(a) at scale: domain-sharded engine, estimated AL vs time, n up to 10^6", run: runFig5aScale, faults: consumesAllFaults},
	"fig5b":       {describe: "Fig. 5(b): PROP-G in Gnutella, varying system size", run: runFig5b},
	"fig5c":       {describe: "Fig. 5(c): PROP-G in Gnutella, varying physical topology", run: runFig5c},
	"fig6a":       {describe: "Fig. 6(a): PROP-G in Chord, stretch vs time, varying TTL", run: runFig6a},
	"fig6b":       {describe: "Fig. 6(b): PROP-G in Chord, varying system size", run: runFig6b},
	"fig6c":       {describe: "Fig. 6(c): PROP-G in Chord, varying physical topology", run: runFig6c},
	"fig7":        {describe: "Fig. 7: PROP-O vs PROP-G vs LTM under bimodal processing delay", run: runFig7},
	"overhead":    {describe: "§4.3: messages per adjustment, measured vs model", run: runOverhead},
	"churn":       {describe: "§3.2/§4.3: probe frequency and stretch under churn", run: runChurn},
	"combo":       {describe: "§1/§6: PROP-G combined with PNS (Chord) and PIS (CAN)", run: runCombo},
}

// IDs lists all experiment identifiers in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description of an experiment, or "".
func Describe(id string) string { return registry[id].describe }

// Run executes the experiment with the given options.
func Run(id string, opt Options) (*Result, error) {
	entry, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	if err := checkFaultFlags(id, entry.faults, opt); err != nil {
		return nil, err
	}
	return entry.run(opt.withDefaults())
}

// forEachTrial runs body for every trial index on a GOMAXPROCS-bounded
// worker pool and returns the per-trial outputs in index order. body must
// be self-contained (own RNG, own network). The lowest-indexed error wins,
// exactly as when each trial had its own goroutine. Bounding the pool keeps
// a 100-trial sweep from spawning 100 simulations at once; each trial's
// internal parallelism (Oracle.Precompute, metric evaluators) draws from a
// process-wide worker budget, so the layers compose without oversubscribing
// the CPUs.
func forEachTrial(trials int, body func(trial int) ([]stats.Series, error)) ([][]stats.Series, error) {
	out := make([][]stats.Series, trials)
	errs := make([]error, trials)
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	ch := make(chan int, trials)
	for t := 0; t < trials; t++ {
		ch <- t
	}
	close(ch)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for t := range ch {
				out[t], errs[t] = body(t)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergeTrials averages the i-th series across trials for every i.
func mergeTrials(perTrial [][]stats.Series) []stats.Series {
	if len(perTrial) == 0 {
		return nil
	}
	nSeries := len(perTrial[0])
	out := make([]stats.Series, nSeries)
	for i := 0; i < nSeries; i++ {
		group := make([]stats.Series, 0, len(perTrial))
		for _, trial := range perTrial {
			group = append(group, trial[i])
		}
		out[i] = stats.MergeMean(perTrial[0][i].Label, group)
	}
	return out
}

// trialSeed derives a distinct deterministic seed per (experiment seed,
// trial index) pair.
func trialSeed(base uint64, trial int) uint64 {
	x := base ^ (uint64(trial)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

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
// Key types: Options — seed, trials, scale, the knobs some experiments
// consume, and the optional obs.Registry for the DESIGN.md §8 metrics
// stream — and Result.
// The experiments themselves are one table (table, below): DESIGN.md §2's
// per-figure index as data, one row per ID. Measured outcomes are in
// EXPERIMENTS.md.
package experiment

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Options controls an experiment run. Seed, Trials, Scale and Metrics apply
// to every experiment; every other field is consumed by only some of them,
// and Run rejects a set field the experiment does not consume — a knob is
// never silently ignored.
type Options struct {
	// Seed selects the deterministic RNG universe. Default 1.
	Seed uint64
	// Trials is the number of independent repetitions averaged. Default 3.
	Trials int
	// Scale in (0,1] shrinks node counts and workload sizes for quick runs
	// (benchmarks, -short tests). 1.0 reproduces the paper's scale; 0 means
	// the default 1.0.
	Scale float64
	// Audit attaches the online invariant auditor (internal/audit) to every
	// simulated run of fig5* and fig6*: overlay bijection/connectivity,
	// PROP-G topology freezing, and DHT well-formedness are checked on the
	// sampled protocol event stream (every event under -tags auditstrict).
	// One summary line per run is appended to Result.Notes; any violation
	// fails the run.
	Audit bool
	// FaultLoss, FaultCrash, and FaultPartitionMS parameterize the
	// fault-aware experiments (cmd/propsim -loss/-crash/-partition). Zero
	// keeps each experiment's default: a non-zero FaultLoss or FaultCrash
	// collapses figR's and figR-scale's sweeps to {0, value} and attaches
	// the corresponding fault schedule to fig5a-scale; a non-zero
	// FaultPartitionMS sets the partition-window length (figRc, figR-scale,
	// fig5a-scale).
	FaultLoss        float64
	FaultCrash       float64
	FaultPartitionMS float64
	// ALMode adds the paper's eq. (3) average-latency series ("al_ms") to
	// the metrics stream of the experiments that maintain a live overlay
	// (fig5a/b/c, churn): ALModeExact refloods at every sample point,
	// ALModeSketch estimates from k source rows (skipping unreachable pairs
	// and counting them in "al.unreachable"). Empty — the default — keeps
	// the AL machinery detached and every output byte-identical to before.
	ALMode string
	// ScaleMaxN caps the peer ladder of fig5a-scale and figR-scale
	// (cmd/propsim -scale-n): rungs above it are dropped and the top rung
	// becomes exactly this value (further shrunk by Scale). 0 means the full
	// ladder to 10^6.
	ScaleMaxN int
	// Shards sets the sharded engine's parallel engine count for the two
	// ladders (cmd/propsim -shards); 0 means one engine per transit domain.
	// The metrics stream is byte-identical for every admissible value (the
	// internal/shard determinism contract), so this is purely a wall-clock
	// knob.
	Shards int
	// Metrics, when non-nil, switches the observability layer on: the
	// instrumented experiments (fig5*, fig6*, fig7, churn, figR*) record
	// per-trial phase spans, sim-clock time series of the
	// protocol/overlay/back-off state, exchange histograms, and the oracle
	// query counter into this registry (DESIGN.md §8). Nil — the default —
	// keeps every instrumentation site on its no-op path.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trials == 0 {
		o.Trials = 3
	}
	if o.Scale == 0 {
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
	header := fmt.Sprintf("%12s", r.XLabel)
	for _, s := range r.Series {
		header += fmt.Sprintf("  %18s", s.Label)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, row := range r.rows(func(x float64) string { return fmt.Sprintf("%12.3g", x) }, func(y float64) string {
		if math.IsNaN(y) {
			return fmt.Sprintf("  %18s", "-")
		}
		return fmt.Sprintf("  %18.3f", y)
	}) {
		fmt.Fprintln(w, strings.Join(row, ""))
	}
	fmt.Fprintf(w, "(y axis: %s)\n", r.YLabel)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// spec is one row of the experiment table: what the Result says about
// itself, which optional Options it reads, and the one function that
// computes a trial. Run does everything else the same way for every row.
type spec struct {
	id       string
	describe string // the one-line `propsim -list` description
	title    string
	xLabel   string
	yLabel   string
	// notes are the fixed notes: after the lead note, before the trailing
	// "scale=… seed=… trials=…" note Run writes.
	notes []string
	// uses is the set of optional Options fields the experiment consumes.
	uses optionSet
	// trial computes one trial's series; Run averages them point-wise.
	trial func(*trialCtx) ([]stats.Series, error)
	// lead, when set, renders the first note from the options and the sum
	// of the trials' tallies.
	lead func(opt Options, tally int) string
	// alSeries names the eq. (3) AL series in the metrics stream; set on
	// the experiments that consume ALMode, for the note saying where it is.
	alSeries string
	// run replaces the trial path for the two peer ladders, whose rungs are
	// not averaged: it returns every series and note itself.
	run func(Options) ([]stats.Series, []string, error)
}

// table is every experiment, in the order of DESIGN.md §2.
var table = []spec{
	{id: "fig5a", describe: "Fig. 5(a): PROP-G in Gnutella, lookup latency vs time, varying TTL",
		title:  "Effectiveness of PROP-G in Gnutella-like environment, varying the TTL scale",
		xLabel: "time (min)", yLabel: "average lookup latency (ms)",
		notes: []string{"expected shape: nhops=1 improves least; nhops∈{2,4} and random nearly coincide"},
		uses:  useAudit | useALMode, alSeries: "<variant>/al_ms",
		trial: timeSeries(gnutellaLatency, ttlCurves)},
	{id: "fig5b", describe: "Fig. 5(b): PROP-G in Gnutella, varying system size",
		title:  "Effectiveness of PROP-G in Gnutella-like environment, varying the system size",
		xLabel: "time (min)", yLabel: "average lookup latency (ms)",
		notes: []string{"expected shape: relative improvement shrinks slightly as n grows"},
		uses:  useAudit | useALMode, alSeries: "<variant>/al_ms",
		trial: timeSeries(gnutellaLatency, sizeCurves)},
	{id: "fig5c", describe: "Fig. 5(c): PROP-G in Gnutella, varying physical topology",
		title:  "Effectiveness of PROP-G in Gnutella-like environment, varying the physical topology",
		xLabel: "time (min)", yLabel: "average lookup latency (ms)",
		notes: []string{"expected shape: ts-large (Internet-like backbone) improves more than ts-small"},
		uses:  useAudit | useALMode, alSeries: "<variant>/al_ms",
		trial: timeSeries(gnutellaLatency, topologyCurves)},
	{id: "fig6a", describe: "Fig. 6(a): PROP-G in Chord, stretch vs time, varying TTL",
		title:  "Effectiveness of PROP-G in Chord environment, varying the TTL scale",
		xLabel: "time (min)", yLabel: "stretch",
		notes: []string{"expected shape: nhops=1 reduces stretch least; nhops∈{2,4} ≈ random"},
		uses:  useAudit,
		trial: timeSeries(chordStretch, ttlCurves)},
	{id: "fig6b", describe: "Fig. 6(b): PROP-G in Chord, varying system size",
		title:  "Effectiveness of PROP-G in Chord environment, varying the system size",
		xLabel: "time (min)", yLabel: "stretch",
		notes: []string{"expected shape: larger systems improve relatively less"},
		uses:  useAudit,
		trial: timeSeries(chordStretch, sizeCurves)},
	{id: "fig6c", describe: "Fig. 6(c): PROP-G in Chord, varying physical topology",
		title:  "Effectiveness of PROP-G in Chord environment, varying the physical topology",
		xLabel: "time (min)", yLabel: "stretch",
		notes: []string{"expected shape: ts-large improves more than ts-small"},
		uses:  useAudit,
		trial: timeSeries(chordStretch, topologyCurves)},
	{id: "fig7", describe: "Fig. 7: PROP-O vs PROP-G vs LTM under bimodal processing delay",
		title:  "Average lookup latency for bimodal processing delay, varying the fraction of fast-node lookups",
		xLabel: "fraction of fast lookups", yLabel: "average lookup delay (ratio vs unoptimized overlay)",
		notes: []string{
			"bimodal model: fast=1ms, slow=100ms, 20% fast machines (the overlay hubs)",
			"expected shape: LTM best at x=0; PROP-O decreases with x; PROP-G and LTM worsen as x→1",
			"the PROP-O/LTM crossover at x=1 reproduces at n<=500 (scale<=0.5); at n=1000 the two converge within ~2% — PROP-O matching LTM at a fraction of the message cost while preserving degrees (see EXPERIMENTS.md)",
		},
		trial: fig7Trial},
	{id: "overhead", describe: "§4.3: messages per adjustment, measured vs model",
		title:  "Message overhead per adjustment step: measured vs analytical model",
		xLabel: "variant", yLabel: "messages per probe cycle",
		notes: []string{
			"variant index: 0=PROP-G, 1=PROP-O m=1, 2=PROP-O m=2, 3=PROP-O m=4",
			"expected shape: PROP-O far cheaper than PROP-G because c >> m",
			"PROP-G measured exceeds nhops+2c: walk partners are degree-biased, and the degree-biased mean degree exceeds c in a power-law overlay",
		},
		trial: overheadTrial},
	{id: "churn", describe: "§3.2/§4.3: probe frequency, stretch and lookup correctness under churn, on Gnutella and Chord",
		title:  "PROP-G under churn on Gnutella and Chord: probe frequency, stretch and lookup correctness over time",
		xLabel: "time (min)", yLabel: "probes per node per minute | stretch | correct fraction",
		notes: []string{fmt.Sprintf("churn window: minutes %d-%d (Poisson joins and leaves, ~25%% of peers)", churnStartMS/60000, churnStopMS/60000),
			"expected shape: on both substrates the probe rate spikes inside the window and decays after, and stretch bumps then recovers; every sampled Chord lookup reaches its owner"},
		uses: useALMode, alSeries: "churn/al_ms",
		trial: churnTrial},
	{id: "proximity", describe: "§1/§6: PROP-G combined with the proximity method of Chord (PNS) and CAN (PIS)",
		title:  "PROP-G combined with each DHT's proximity method (final routing stretch after optimization)",
		xLabel: "method", yLabel: "stretch",
		notes: []string{
			"method index: 0=plain, 1=proximity only (Chord PNS, CAN PIS), 2=PROP-G only, 3=proximity + PROP-G",
			"expected shape: PROP-G alone and the combination beat plain on every DHT; the combination is never materially worse than proximity alone",
		},
		trial: proximityTrial},
	{id: "traffic", describe: "extension: TTL-flood traffic cost before/after PROP-G, PROP-O, LTM",
		title:  "TTL-flood traffic per query: unoptimized vs PROP-G vs PROP-O vs LTM",
		xLabel: "variant", yLabel: "messages | ms traffic | peers reached",
		notes: []string{
			"variant index: 0=unoptimized, 1=PROP-G, 2=PROP-O, 3=LTM",
			fmt.Sprintf("flood TTL = %d", floodTTL),
			"expected: PROP-G leaves the message count untouched (identical graph) while cutting ms-traffic; PROP-O leaves degrees (≈message count) while cutting ms-traffic; LTM changes the message count itself",
		},
		trial: trafficTrial},
	{id: "ablation", describe: "ablation: MAX_INIT_TRIAL and MIN_VAR sweeps — why the warm-up is ~10 probes and the exchange gate is 0",
		title:  "Ablations: warm-up length MAX_INIT_TRIAL and exchange threshold MIN_VAR vs final quality and cost",
		xLabel: "MAX_INIT_TRIAL | MIN_VAR (ms)", yLabel: "mean link latency (ms) | probes per node | exchanges",
		notes: []string{
			"both sweeps re-optimize clones of one Gnutella overlay per trial: warmup over 60 min, minvar over 30 min",
			"expected (warmup): latency improves sharply up to ~10 trials, then flattens while probe cost keeps rising",
			"expected (minvar): latency is best at MIN_VAR=0 and degrades as the gate rises; exchanges fall monotonically",
		},
		trial: sweepTrial(warmupSweep, minVarSweep)},
	{id: "inflight", describe: "§3.2: lookups in flight during peer-exchanges — counterpart-cache correctness",
		title:  "Lookups concurrent with peer-exchanges: counterpart-cache correctness",
		xLabel: "variant", yLabel: "correct fraction | stale/1000 | exchanges",
		notes: []string{
			"variant index: 0=quiet, 1=paper pace (60s timer), 2=aggressive (1s), 3=hostile (50ms)",
			"expected: correct fraction 1.0 in every variant; stale arrivals grow with exchange pressure and are absorbed by the cache",
		},
		trial: inflightTrial},
	{id: "noise", describe: "robustness: PROP-G under multiplicative probe-RTT measurement noise",
		title:  "Robustness: PROP-G under probe measurement noise",
		xLabel: "noise σ (fraction of true RTT)", yLabel: "final mean link latency (ms) | harmful exchange fraction",
		notes: []string{
			"noise perturbs the Var decision only; topology changes always apply to ground truth",
			"expected: near-flat latency at σ≈0.1 (Var averages many measurements), graceful degradation beyond; harmful-exchange fraction grows with σ but individual harms stay small",
		},
		trial: sweepTrial(noiseSweep)},
	{id: "satmatch", describe: "baseline: SAT-Match (relocation jumps) vs PROP-G on Chord",
		title:  "SAT-Match relocation jumps vs PROP-G exchanges on Chord (routing stretch over time)",
		xLabel: "time (min)", yLabel: "stretch",
		lead: func(opt Options, minted int) string {
			return fmt.Sprintf("SAT-Match minted %d fresh identifiers across %d trials; PROP-G minted 0 (it only permutes existing IDs — §4.1's anonymity argument)", minted, opt.Trials)
		},
		notes: []string{"each SAT-Match relocation also re-assigns keyspace ownership (data movement); a PROP-G swap moves only the two peers' stored keys"},
		trial: satMatchTrial},
	{id: "figR", describe: "robustness: PROP-G/PROP-O final stretch vs message-loss rate, and PROP-G under crash-stop churn with repair rounds and audit",
		title:  "Robustness to message loss and crash-stop churn: final stretch vs fault rate",
		xLabel: "fault rate (%)", yLabel: "stretch | corpses repaired",
		notes: []string{
			"the loss sweep (x = loss rate) and the crash sweep (x = crashed peers) each re-optimize their own Gnutella world per trial",
			fmt.Sprintf("loss: per message, loss as swept, duplication = loss/%g, jitter U[0,%dms)", 1/figRDupFraction, figRJitterMS),
			fmt.Sprintf("crash: background faults loss=%g, duplication=%g, jitter U[0,%dms); each host crashes with the swept probability at a faults.CrashAt time inside minutes %d-%d",
				figRBackgroundLoss, figRBackgroundLoss*figRDupFraction, figRJitterMS, churnStartMS/60000, churnStopMS/60000),
			"repair: once per minute, gnutella.Net.Repair purges corpses and rewires survivors; audit (bijection, connectivity, overlay invariants) runs after every repair round and fails the run on violation",
			"expected shape (loss): both policies stay well below the unoptimized line across the sweep, rising gently with loss",
			"expected shape (crash): stretch rises mildly with the crashed fraction but stays below the unoptimized overlay",
			"timeout/retry/eviction totals are in the metrics stream under figR/loss/<policy>/loss<pct>/faults.* and figR/crash/crash<pct>/faults.*",
		},
		uses:  useLoss | useCrash,
		trial: figRTrial},
	{id: "figRc", describe: "robustness: PROP-G through a transient network partition",
		title:  "Robustness to a transient partition: stretch and fault activity over time",
		xLabel: "time (min)", yLabel: "stretch | probes/node/min | timeouts/node/min",
		lead: func(opt Options, _ int) string {
			return fmt.Sprintf("partition: transit domain 0 isolated during minutes %g-%g; background loss=%g",
				churnStartMS/60000.0, (churnStartMS+partitionMS(opt))/60000.0, figRBackgroundLoss)
		},
		notes: []string{"expected shape: timeout rate spikes inside the window and collapses after healing; stretch keeps improving (intra-side exchanges continue) and converges once the cut heals"},
		uses:  usePartition,
		trial: figRcTrial},
	{id: "fig5a-scale", describe: "Fig. 5(a) at scale: domain-sharded engine, estimated AL vs time, n up to 10^6",
		title:  "PROP-G at scale: sharded engine, estimated AL vs time, varying the system size",
		xLabel: "time (min)", yLabel: "estimated average latency (ms)",
		uses: useLadder,
		run:  runFig5aScale},
	{id: "figR-scale", describe: "robustness at scale: sharded engine, final estimated AL vs loss/crash rate per ladder rung",
		title:  "Robustness at scale: final estimated AL vs fault intensity on the peer ladder",
		xLabel: "fault rate (%)", yLabel: "final estimated average latency (ms)",
		uses: useLadder,
		run:  runFigRScale},
}

// lookup returns the table row of id, or nil.
func lookup(id string) *spec {
	if i := slices.IndexFunc(table, func(s spec) bool { return s.id == id }); i >= 0 {
		return &table[i]
	}
	return nil
}

// IDs lists all experiment identifiers in sorted order.
func IDs() []string {
	ids := make([]string, len(table))
	for i, s := range table {
		ids[i] = s.id
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description of an experiment, or "".
func Describe(id string) string {
	if s := lookup(id); s != nil {
		return s.describe
	}
	return ""
}

// Check reports, before anything runs, why Run(id, opt) would reject its
// arguments: an unknown id or an option value the experiment does not
// accept.
func Check(id string, opt Options) error {
	s := lookup(id)
	if s == nil {
		return fmt.Errorf("experiment: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return s.check(opt)
}

// Run executes the experiment with the given options.
func Run(id string, opt Options) (*Result, error) {
	if err := Check(id, opt); err != nil {
		return nil, err
	}
	s := lookup(id)
	opt = opt.withDefaults()
	res := &Result{ID: s.id, Title: s.title, XLabel: s.xLabel, YLabel: s.yLabel}
	if s.run != nil {
		var err error
		if res.Series, res.Notes, err = s.run(opt); err != nil {
			return nil, err
		}
		return res, nil
	}
	trials := make([]trialCtx, opt.Trials)
	perTrial, err := forEachTrial(opt.Trials, func(t int) ([]stats.Series, error) {
		trials[t] = trialCtx{Options: opt, index: t, world: trialSeed(opt.Seed, t), tr: opt.Metrics.Trial(t)}
		return s.trial(&trials[t])
	})
	if err != nil {
		return nil, err
	}
	res.Series = mergeTrials(perTrial)
	if s.lead != nil {
		tally := 0
		for _, c := range trials {
			tally += c.tally
		}
		res.Notes = append(res.Notes, s.lead(opt, tally))
	}
	res.Notes = append(res.Notes, s.notes...)
	res.Notes = append(res.Notes, fmt.Sprintf("scale=%.2f seed=%d trials=%d", opt.Scale, opt.Seed, opt.Trials))
	for _, c := range trials {
		for _, line := range c.audits {
			res.Notes = append(res.Notes, fmt.Sprintf("audit trial %d: %s", c.index, line))
		}
	}
	if opt.ALMode != ALModeOff {
		res.Notes = append(res.Notes, fmt.Sprintf("al-mode=%s: eq. (3) AL series recorded as %s in the metrics stream", opt.ALMode, s.alSeries))
	}
	return res, nil
}

// trialCtx is what one trial computes with: the options (defaults
// applied), the trial's index, world seed and metrics scope (nil when the
// layer is off). A trial reports its audit summaries and the row's tally
// back through it, so parallel trials share no state.
type trialCtx struct {
	Options
	index int
	world uint64 // trialSeed(Seed, index): the trial's world; derived seeds hang off it
	tr    *obs.Trial
	// audits holds one audit summary per audited run, in run order.
	audits []string
	// tally is a per-trial count the row's lead note sums.
	tally int
}

// subSeed derives the k-th protocol stream of block base in this trial.
// The blocks (1000 for the Fig. 5/6 curves, 2000–4000 for the sweeps,
// 5000 for satmatch) keep every stream distinct across rows, trials and
// variants.
func (c *trialCtx) subSeed(base, k int) uint64 { return trialSeed(c.Seed, base+c.index*100+k) }

// optionSet is a set of the optional Options fields — the knobs only some
// experiments read.
type optionSet uint8

const (
	useLoss optionSet = 1 << iota
	useCrash
	usePartition
	useALMode
	useScaleMaxN
	useShards
	useAudit

	useLadder = useLoss | useCrash | usePartition | useScaleMaxN | useShards
)

// check rejects, before any trial runs, the option values no experiment
// accepts — a scale outside [0, 1] or negative trials (withDefaults fills
// only a zero), a negative or non-finite fault override or a loss or crash
// fraction above 1 (a sweep treats a value ≤ 0 as unset, NaN passes every
// range check, and the crash sweep ran a "200 %" row), a negative ladder
// cap or shard count (the ladder reads a cap ≤ 0 as the full 10^6 ladder)
// or an unknown AL mode — and every set optional field the row does not
// consume, naming the rows that do. Before this guard
// `propsim -exp fig5b -loss 0.05` ran the fault-free experiment and reported
// clean results as if the faults had been applied.
func (s *spec) check(opt Options) error {
	if !(opt.Scale >= 0 && opt.Scale <= 1) {
		return fmt.Errorf("experiment: -scale = %v, want a value in (0, 1], or 0 for the default", opt.Scale)
	}
	if opt.Trials < 0 {
		return fmt.Errorf("experiment: -trials = %d, want >= 1, or 0 for the default", opt.Trials)
	}
	for _, f := range []struct {
		flag  string
		v, hi float64
	}{{"-loss", opt.FaultLoss, 1}, {"-crash", opt.FaultCrash, 1}, {"-partition", opt.FaultPartitionMS, math.Inf(1)}} {
		if !(f.v >= 0 && f.v <= f.hi && f.v < math.Inf(1)) {
			return fmt.Errorf("experiment: %s = %v, want a finite value in [0, %v]", f.flag, f.v, f.hi)
		}
	}
	for _, f := range []struct {
		flag string
		v    int
	}{{"-scale-n", opt.ScaleMaxN}, {"-shards", opt.Shards}} {
		if f.v < 0 {
			return fmt.Errorf("experiment: %s = %d, want >= 0", f.flag, f.v)
		}
	}
	switch opt.ALMode {
	case ALModeOff, ALModeExact, ALModeSketch:
	default:
		return fmt.Errorf("experiment: unknown AL mode %q (want %q or %q)",
			opt.ALMode, ALModeExact, ALModeSketch)
	}
	var ignored, consumers []string
	for _, k := range []struct {
		use  optionSet
		flag string // the propsim flag setting the field
		set  bool
	}{
		{useLoss, "-loss", opt.FaultLoss != 0},
		{useCrash, "-crash", opt.FaultCrash != 0},
		{usePartition, "-partition", opt.FaultPartitionMS != 0},
		{useALMode, "-al-mode", opt.ALMode != ALModeOff},
		{useScaleMaxN, "-scale-n", opt.ScaleMaxN != 0},
		{useShards, "-shards", opt.Shards != 0},
		{useAudit, "Options.Audit", opt.Audit},
	} {
		if k.set && s.uses&k.use == 0 {
			ignored = append(ignored, k.flag)
			consumers = append(consumers, k.flag+" applies to: "+strings.Join(idsUsing(k.use), ", "))
		}
	}
	if len(ignored) == 0 {
		return nil
	}
	return fmt.Errorf("experiment: %s does not consume %s (%s)",
		s.id, strings.Join(ignored, "/"), strings.Join(consumers, "; "))
}

// idsUsing lists the experiments consuming use, sorted.
func idsUsing(use optionSet) []string {
	var ids []string
	for _, s := range table {
		if s.uses&use != 0 {
			ids = append(ids, s.id)
		}
	}
	sort.Strings(ids)
	return ids
}

// forEachTrial runs body for every trial index on a GOMAXPROCS-bounded
// worker pool and returns the per-trial outputs in index order. body must
// be self-contained (own RNG, own network). The lowest-indexed error wins,
// exactly as when each trial had its own goroutine. Bounding the pool keeps
// a 100-trial sweep from spawning 100 simulations at once; each trial's
// internal parallelism (metric evaluators) draws from a process-wide worker
// budget, so the layers compose without oversubscribing the CPUs.
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

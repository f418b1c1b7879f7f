package experiment

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// The golden pass: every experiment ID runs once per test binary, at
// goldenOpt with a metrics registry attached, and that one run is checked
// three ways — its rendered table (and, where pinned, its metrics stream)
// against testdata/golden_amd64.txt, the structural contract of
// TestAllExperimentsSmoke, and the expected shapes of DESIGN.md §2 wherever
// they hold at that scale (the Test*Shape functions below; a shape that
// needs another scale says so and runs its own).

// goldenOpt is the option set every golden line was recorded at.
var goldenOpt = Options{Seed: 5, Trials: 2, Scale: 0.1}

// goldens maps "<kind> <run>" to the FNV-64a hex digest recorded in
// testdata/golden_amd64.txt: the rendered table of every experiment ID
// ("render") and eleven metrics streams ("stream"). A run is an ID, or an
// ID and " al-mode=<mode>" for a run with Options.ALMode set. Double-run
// equality only proves a run agrees with itself; the goldens prove a
// refactor left the bytes where they were.
var goldens, goldensErr = loadGoldens()

func loadGoldens() (map[string]string, error) {
	f, err := os.Open("testdata/golden_amd64.txt")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if i := strings.LastIndexByte(sc.Text(), ' '); i > 0 {
			m[sc.Text()[:i]] = sc.Text()[i+1:]
		}
	}
	return m, sc.Err()
}

// checkGolden compares data's digest with the recorded one for key. Go
// fuses float multiply-adds on some architectures (arm64, ppc64le, s390x)
// but not on amd64, which moves low-order digits, so the comparison only
// runs on the GOARCH the file was recorded on.
func checkGolden(t *testing.T, key string, data []byte) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	if goldensErr != nil {
		t.Fatalf("golden file: %v", goldensErr)
	}
	h := fnv.New64a()
	h.Write(data)
	got := fmt.Sprintf("%016x", h.Sum64())
	if want := goldens[key]; got != want {
		t.Errorf("golden mismatch: output bytes changed; if intended, record this line in testdata/golden_amd64.txt:\n%s %s\n(recorded: %q)", key, got, want)
	}
}

// goldenRun is one ID's single run at goldenOpt: the result, its rendered
// table — the exact bytes a user of cmd/propsim sees — and its JSONL
// metrics stream.
type goldenRun struct {
	once   sync.Once
	res    *Result
	render string
	stream []byte
	err    error
}

var goldenRuns = func() map[string]*goldenRun {
	m := map[string]*goldenRun{}
	for _, id := range IDs() {
		m[id] = new(goldenRun)
	}
	for _, run := range []string{"churn al-mode=exact", "fig5c al-mode=exact"} {
		m[run] = new(goldenRun)
	}
	return m
}()

// golden returns run's golden run (see goldens), running it on first use;
// every test that checks that run shares it. The two peer ladders (≈ 12 s
// between them) skip under -short.
func golden(t *testing.T, run string) *goldenRun {
	t.Helper()
	id, mode, _ := strings.Cut(run, " al-mode=")
	if testing.Short() && lookup(id).run != nil {
		t.Skip("peer ladder in -short mode")
	}
	g := goldenRuns[run]
	g.once.Do(func() {
		opt := goldenOpt
		opt.ALMode = mode
		reg := obs.New(obs.NewManifest(id, opt.Seed, opt.Trials, opt.Scale))
		opt.Metrics = reg
		if g.res, g.err = Run(id, opt); g.err != nil {
			return
		}
		var sb strings.Builder
		g.res.Render(&sb)
		g.render = sb.String()
		var buf bytes.Buffer
		g.err = reg.WriteJSONL(&buf)
		g.stream = buf.Bytes()
	})
	if g.err != nil {
		t.Fatalf("%s: %v", id, g.err)
	}
	return g
}

// series returns the golden run's series labelled label.
func (g *goldenRun) series(t *testing.T, label string) stats.Series {
	t.Helper()
	return seriesOf(t, g.res, label)
}

// seriesOf returns res's series labelled label.
func seriesOf(t *testing.T, res *Result, label string) stats.Series {
	t.Helper()
	for _, s := range res.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("%s: no series %q in %+v", res.ID, label, res.Series)
	return stats.Series{}
}

// seedProbes is one ID per trial runner — the runners several rows share
// (timeSeries, configSweep, proximityTrial) and each row-specific one. A
// different seed must change its series; the rendered table alone would
// differ by its seed note. The figR* rows and the ladders are probed by
// TestFigRMetricsByteDeterminism and TestFig5aScaleStreamDeterministic.
var seedProbes = map[string]bool{
	"fig5c": true, "fig7": true, "overhead": true, "churn": true, "chordchurn": true, "pastry": true,
	"traffic": true, "minvar": true, "inflight": true, "satmatch": true, "replication": true,
}

// TestExperimentsDeterministic is the determinism regression: every
// experiment's rendered table must match its golden digest (trials run in
// parallel goroutines, so this also guards against scheduling-order leaks
// into results), and for one ID per runner a different seed must change
// the series.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pass in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			g := golden(t, id)
			checkGolden(t, "render "+id, []byte(g.render))
			if !seedProbes[id] {
				return
			}
			opt := goldenOpt
			opt.Seed = 6
			other, err := Run(id, opt)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(other.Series, g.res.Series) {
				t.Errorf("seeds 5 and 6 produced identical series — the seed is not reaching the run")
			}
		})
	}
}

// TestMetricsStreamDeterministic is the observability half: the full JSONL
// metrics stream — counters (including the oracle query counter), gauges,
// histograms, series samples, and sim-clock spans — of every pinned ID
// must match its golden digest. Trials run in parallel goroutines and the
// lookup evaluators fan out across cores, so this guards the whole
// instrumentation path against scheduling- and map-iteration-order leaks
// (DESIGN.md §8).
func TestMetricsStreamDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pass in -short mode")
	}
	var pinned []string
	for key := range goldens {
		if id, ok := strings.CutPrefix(key, "stream "); ok {
			pinned = append(pinned, id)
		}
	}
	slices.Sort(pinned)
	if runtime.GOARCH == "amd64" && len(pinned) != 11 {
		t.Fatalf("%d pinned streams, want 11: %v", len(pinned), pinned)
	}
	for _, run := range pinned {
		run := run
		t.Run(run, func(t *testing.T) {
			t.Parallel()
			g := golden(t, run)
			if !bytes.Contains(g.stream, []byte(`"kind":"sample"`)) {
				t.Errorf("%s stream has no series samples — instrumentation not wired", run)
			}
			if !bytes.Contains(g.stream, []byte(`"kind":"span"`)) {
				t.Errorf("%s stream has no phase spans — instrumentation not wired", run)
			}
			checkGolden(t, "stream "+run, g.stream)
		})
	}
}

// TestAllExperimentsSmoke verifies every experiment's structural contract
// on its golden run: at least one series, every series non-empty and
// rectangular, no NaN/Inf values, and notes documenting the setup.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pass in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res := golden(t, id).res
			if res.ID != id {
				t.Fatalf("result ID %q != %q", res.ID, id)
			}
			if len(res.Series) == 0 {
				t.Fatal("no series")
			}
			for _, s := range res.Series {
				if s.Len() == 0 {
					t.Fatalf("series %q empty", s.Label)
				}
				if len(s.X) != len(s.Y) {
					t.Fatalf("series %q ragged: %d x, %d y", s.Label, len(s.X), len(s.Y))
				}
				for i, y := range s.Y {
					if math.IsNaN(y) || math.IsInf(y, 0) {
						t.Fatalf("series %q has non-finite y at x=%v", s.Label, s.X[i])
					}
				}
			}
			if len(res.Notes) == 0 {
				t.Fatal("no notes — every experiment documents its setup")
			}
		})
	}
}

// TestDesignIndexMatchesIDs keeps DESIGN.md §2's per-experiment index and
// the experiment table in step: the index's ID column must list exactly
// IDs().
func TestDesignIndexMatchesIDs(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(doc), "\n## 2. ")
	sec, _, _ = strings.Cut(sec, "\n## ")
	var ids []string
	for _, line := range strings.Split(sec, "\n") {
		if cell, ok := strings.CutPrefix(line, "| `"); ok {
			id, _, _ := strings.Cut(cell, "`")
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	if !slices.Equal(ids, IDs()) {
		t.Errorf("DESIGN.md §2 lists %v,\nthe table has %v", ids, IDs())
	}
}

// improvedBy reports whether the series ends at most frac of its start.
func improvedBy(s stats.Series, frac float64) bool {
	return s.Len() >= 2 && s.Final() <= s.Y[0]*frac
}

// churnSpike checks §4.3's dynamics on a probes/node/min series: the rate
// inside the churn window exceeds the quiet minute before it (timers reset
// on churn) and decays again after the window.
func churnSpike(t *testing.T, probes stats.Series) {
	t.Helper()
	pre, peak := probes.YAt(19), 0.0
	for i, x := range probes.X {
		if x > 20 && x <= 36 && probes.Y[i] > peak {
			peak = probes.Y[i]
		}
	}
	if peak <= pre {
		t.Errorf("no churn spike: pre=%.3f peak=%.3f", pre, peak)
	}
	if tail := probes.Final(); tail >= peak {
		t.Errorf("probe rate did not decay after churn: peak=%.3f tail=%.3f", peak, tail)
	}
}

func TestFig5aShape(t *testing.T) {
	g := golden(t, "fig5a")
	h1, h2 := g.series(t, "n=1000, nhops=1"), g.series(t, "n=1000, nhops=2")
	// nhops >= 2 and random must improve latency substantially.
	for _, s := range []stats.Series{h2, g.series(t, "n=1000, nhops=4"), g.series(t, "n=1000, random")} {
		if !improvedBy(s, 0.9) {
			t.Errorf("%s did not improve enough: %.1f -> %.1f", s.Label, s.Y[0], s.Final())
		}
	}
	// nhops=1 must improve less than nhops=2.
	if drop1, drop2 := h1.Y[0]-h1.Final(), h2.Y[0]-h2.Final(); drop1 >= drop2 {
		t.Errorf("nhops=1 drop %.1f >= nhops=2 drop %.1f", drop1, drop2)
	}
}

func TestFig5cShape(t *testing.T) {
	g := golden(t, "fig5c")
	// "The ts-large topology has much better performance": its latency drop
	// is larger. (ts-small starts far lower — its backbone is one hop — so
	// a relative comparison would be measuring the starting point, not the
	// protocol.)
	large, small := g.series(t, "ts-large"), g.series(t, "ts-small")
	if dl, ds := large.Y[0]-large.Final(), small.Y[0]-small.Final(); dl <= ds {
		t.Errorf("ts-large drop %.1f not above ts-small drop %.1f", dl, ds)
	}
}

func TestFig6aShape(t *testing.T) {
	// At 100 peers the Chord stretch is noise-dominated (5.18 -> 5.71 on
	// the golden run): its own run at 200.
	res, err := Run("fig6a", Options{Seed: 7, Trials: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	s := seriesOf(t, res, "n=1000, nhops=2")
	if !improvedBy(s, 0.95) {
		t.Errorf("chord stretch did not improve: %.2f -> %.2f", s.Y[0], s.Final())
	}
	if s.Y[0] < 1 {
		t.Errorf("initial stretch %.2f below 1 is implausible", s.Y[0])
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 in -short mode")
	}
	// The PROP-O/LTM crossover needs a few hundred peers: its own run.
	res, err := Run("fig7", Options{Seed: 3, Trials: 2, Scale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	ltmS, propG := seriesOf(t, res, "LTM"), seriesOf(t, res, "PROP-G")
	propO := []stats.Series{seriesOf(t, res, "PROP-O (m=1)"), seriesOf(t, res, "PROP-O (m=2)"), seriesOf(t, res, "PROP-O (m=4)")}
	// "When all queries are directed to slow nodes, LTM shows best routing
	// performance": LTM is the minimum at x=0.
	for _, s := range res.Series {
		if s.Label != "LTM" && s.Y[0] <= ltmS.Y[0] {
			t.Errorf("at x=0, %s (%.3f) not above LTM (%.3f)", s.Label, s.Y[0], ltmS.Y[0])
		}
	}
	// "The delay of both PROP-G and LTM increase" toward x=1.
	if propG.Final() <= propG.Y[0] {
		t.Errorf("PROP-G not worsening toward fast lookups: %v", propG.Y)
	}
	// "The delay for PROP-O keeps decreasing"; by x=1 the best PROP-O
	// variant beats LTM.
	bestO := math.Inf(1)
	for _, s := range propO {
		if s.Final() >= s.Y[0] {
			t.Errorf("%s not improving toward fast lookups: %v", s.Label, s.Y)
		}
		bestO = math.Min(bestO, s.Final())
	}
	if bestO >= ltmS.Final() {
		t.Errorf("at x=1 best PROP-O (%.3f) not better than LTM (%.3f)", bestO, ltmS.Final())
	}
}

func TestOverheadShape(t *testing.T) {
	g := golden(t, "overhead")
	measured, model := g.series(t, "measured msgs/adjustment"), g.series(t, "model nhops+2c | nhops+2m")
	if measured.Len() != 4 || model.Len() != 4 {
		t.Fatalf("series lengths: %d, %d", measured.Len(), model.Len())
	}
	for i := 0; i < 4; i++ {
		// PROP-G (index 0) must cost more than every PROP-O variant.
		if i > 0 && measured.Y[0] <= measured.Y[i] {
			t.Errorf("PROP-G measured %.1f not above PROP-O[%d] %.1f", measured.Y[0], i, measured.Y[i])
		}
		// Measured must track the model. PROP-G can exceed nhops+2c
		// noticeably: random walks land on partners with degree-
		// proportional probability, and in a heavy-tailed overlay the
		// degree-biased mean exceeds c. PROP-O's 2m term has no such bias.
		if measured.Y[i] > model.Y[i]*1.6 {
			t.Errorf("variant %d: measured %.1f far above model %.1f", i, measured.Y[i], model.Y[i])
		}
	}
}

func TestChurnShape(t *testing.T) {
	churnSpike(t, golden(t, "churn").series(t, "probes/node/min"))
}

func TestChordChurnShape(t *testing.T) {
	g := golden(t, "chordchurn")
	// The structured invariant: every sampled lookup reaches the true
	// owner at every minute, churn or not.
	correct := g.series(t, "correct fraction")
	for i, y := range correct.Y {
		if y != 1.0 {
			t.Errorf("minute %v: correct fraction %.4f", correct.X[i], y)
		}
	}
	churnSpike(t, g.series(t, "probes/node/min"))
}

func TestComboShape(t *testing.T) {
	for _, s := range golden(t, "combo").res.Series {
		if s.Len() != 4 {
			t.Fatalf("%s has %d points", s.Label, s.Len())
		}
		// The combination and PROP-G alone must both beat plain.
		if plain := s.Y[0]; s.Y[3] >= plain || s.Y[2] >= plain {
			t.Errorf("%s: combined %.2f / PROP-G alone %.2f not better than plain %.2f", s.Label, s.Y[3], s.Y[2], plain)
		}
	}
}

// proximityShape is the Pastry/Kademlia combination shape: proximity and
// PROP-G each beat plain, and the combination — which re-picks the same
// tables after the exchanges — is not materially worse than proximity
// alone.
func proximityShape(t *testing.T, id string) {
	res := golden(t, id).res
	if len(res.Series) != 1 || res.Series[0].Len() != 4 {
		t.Fatalf("series shape wrong: %+v", res.Series)
	}
	plain, prox, propg, combined := res.Series[0].Y[0], res.Series[0].Y[1], res.Series[0].Y[2], res.Series[0].Y[3]
	if prox >= plain || propg >= plain {
		t.Errorf("proximity %.2f / PROP-G %.2f not below plain %.2f", prox, propg, plain)
	}
	if combined > prox*1.1 {
		t.Errorf("combined %.2f materially worse than proximity %.2f", combined, prox)
	}
}

func TestPastryExperimentShape(t *testing.T)   { proximityShape(t, "pastry") }
func TestKademliaExperimentShape(t *testing.T) { proximityShape(t, "kademlia") }

func TestWarmupAblationShape(t *testing.T) {
	g := golden(t, "warmup")
	latency, probes := g.series(t, "final mean link latency (ms)"), g.series(t, "probes per node")
	if latency.Len() != 6 || probes.Len() != 6 {
		t.Fatalf("series lengths %d/%d", latency.Len(), probes.Len())
	}
	// A 1-probe warm-up must end worse than the 10-probe default.
	if latency.YAt(1) <= latency.YAt(10) {
		t.Errorf("warm-up=1 latency %.1f not above warm-up=10 %.1f", latency.YAt(1), latency.YAt(10))
	}
	// Longer warm-ups cost strictly more probes.
	if probes.YAt(40) <= probes.YAt(10) || probes.YAt(10) <= probes.YAt(1) {
		t.Errorf("probe cost not increasing in warm-up length: %v", probes.Y)
	}
	// Diminishing returns per added warm-up probe: the 1→10 stretch must
	// buy more latency per probe than the 10→40 stretch.
	early := (latency.YAt(1) - latency.YAt(10)) / 9
	late := (latency.YAt(10) - latency.YAt(40)) / 30
	if late >= early {
		t.Errorf("no diminishing returns: early %.2f ms/probe, late %.2f ms/probe", early, late)
	}
}

func TestMinVarAblationShape(t *testing.T) {
	g := golden(t, "minvar")
	latency, exchanges := g.series(t, "final mean link latency (ms)"), g.series(t, "exchanges executed")
	// Zero threshold must beat the largest threshold.
	if latency.YAt(0) >= latency.YAt(400) {
		t.Errorf("MIN_VAR=0 latency %.1f not below MIN_VAR=400 %.1f", latency.YAt(0), latency.YAt(400))
	}
	// Exchange counts must fall as the gate rises (strictly end to end).
	if exchanges.YAt(0) <= exchanges.YAt(400) {
		t.Errorf("exchanges not decreasing: %v", exchanges.Y)
	}
}

func TestNoiseShape(t *testing.T) {
	g := golden(t, "noise")
	latency, harmful := g.series(t, "final mean link latency (ms)"), g.series(t, "harmful exchange fraction")
	if latency.Len() != 6 || harmful.Len() != 6 {
		t.Fatalf("series shapes: %d/%d", latency.Len(), harmful.Len())
	}
	// No noise ⇒ no harmful exchanges (Var is exact and the gate is > 0).
	if harmful.YAt(0) != 0 {
		t.Errorf("harmful fraction %.3f at σ=0", harmful.YAt(0))
	}
	// Extreme noise must be worse than exact measurements…
	if latency.YAt(2.0) <= latency.YAt(0) {
		t.Errorf("σ=2 latency %.1f not above σ=0 %.1f", latency.YAt(2.0), latency.YAt(0))
	}
	// …but moderate noise must stay close to exact: the averaging in Var is
	// the robustness mechanism under test.
	if latency.YAt(0.1) > latency.YAt(0)*1.10 {
		t.Errorf("σ=0.1 latency %.1f degraded >10%% vs exact %.1f", latency.YAt(0.1), latency.YAt(0))
	}
	// Harmful fraction grows with noise.
	if harmful.YAt(1.0) <= harmful.YAt(0.1) {
		t.Errorf("harmful fraction not growing: %v", harmful.Y)
	}
}

func TestTrafficShape(t *testing.T) {
	g := golden(t, "traffic")
	msgs, traffic := g.series(t, "messages per query"), g.series(t, "traffic (ms per query)")
	if msgs.Len() != 4 || traffic.Len() != 4 {
		t.Fatalf("series shapes: %d/%d", msgs.Len(), traffic.Len())
	}
	// PROP-G leaves the logical graph untouched: message count identical.
	if msgs.YAt(1) != msgs.YAt(0) {
		t.Errorf("PROP-G changed the flood message count: %.1f vs %.1f", msgs.YAt(1), msgs.YAt(0))
	}
	// PROP-O preserves degrees: message count within 5%.
	if d := msgs.YAt(2) / msgs.YAt(0); d < 0.95 || d > 1.05 {
		t.Errorf("PROP-O message count drifted: ratio %.3f", d)
	}
	// Both PROP variants must cut the latency-weighted traffic.
	for _, idx := range []float64{1, 2} {
		if traffic.YAt(idx) >= traffic.YAt(0) {
			t.Errorf("variant %v did not reduce ms-traffic: %.0f vs %.0f", idx, traffic.YAt(idx), traffic.YAt(0))
		}
	}
}

func TestReplicationShape(t *testing.T) {
	g := golden(t, "replication")
	plain, prop, ratio := g.series(t, "unoptimized (ms)"), g.series(t, "PROP-G (ms)"), g.series(t, "PROP-G/unoptimized")
	if plain.Len() != 5 || prop.Len() != 5 || ratio.Len() != 5 {
		t.Fatalf("series shapes: %d/%d/%d", plain.Len(), prop.Len(), ratio.Len())
	}
	// More replicas ⇒ cheaper search, end to end, on both overlays.
	if plain.Final() >= plain.Y[0] || prop.Final() >= prop.Y[0] {
		t.Errorf("search not improving with replication: %v / %v", plain.Y, prop.Y)
	}
	// PROP-G helps at every replication factor.
	for i := range ratio.Y {
		if ratio.Y[i] >= 1 {
			t.Errorf("PROP-G not helping at %v replicas: ratio %.3f", ratio.X[i], ratio.Y[i])
		}
	}
}

func TestInflightShape(t *testing.T) {
	g := golden(t, "inflight")
	correct, stale, exchanges := g.series(t, "correct fraction"), g.series(t, "stale arrivals per 1000 lookups"), g.series(t, "exchanges during run")
	if correct.Len() != 4 {
		t.Fatalf("series shape: %+v", g.res.Series)
	}
	// The paper's mechanism: correctness never degrades, at any pressure.
	for i, y := range correct.Y {
		if y != 1.0 {
			t.Errorf("variant %d: correct fraction %.4f", i, y)
		}
	}
	// Quiet baseline has no stale arrivals and no exchanges.
	if stale.Y[0] != 0 || exchanges.Y[0] != 0 {
		t.Errorf("quiet variant not quiet: stale=%v exchanges=%v", stale.Y[0], exchanges.Y[0])
	}
	// Pressure must rise across the variants and actually exercise the
	// cache at the hostile setting.
	if exchanges.Y[3] <= exchanges.Y[1] {
		t.Errorf("exchange pressure not rising: %v", exchanges.Y)
	}
	if stale.Y[3] == 0 {
		t.Error("hostile variant produced no stale arrivals — cache untested")
	}
}

func TestSATMatchShape(t *testing.T) {
	g := golden(t, "satmatch")
	plain, sat, prop := g.series(t, "no optimization"), g.series(t, "SAT-Match"), g.series(t, "PROP-G")
	// All variants share the identical starting ring.
	if plain.Y[0] != sat.Y[0] || plain.Y[0] != prop.Y[0] {
		t.Fatalf("variants start apart: %.3f/%.3f/%.3f", plain.Y[0], sat.Y[0], prop.Y[0])
	}
	// The unoptimized ring is flat; both optimizers end below it.
	if plain.Final() != plain.Y[0] {
		t.Errorf("unoptimized ring drifted: %.3f -> %.3f", plain.Y[0], plain.Final())
	}
	if sat.Final() >= plain.Final() || prop.Final() >= plain.Final() {
		t.Errorf("SAT-Match %.3f / PROP-G %.3f not below plain %.3f", sat.Final(), prop.Final(), plain.Final())
	}
	// The cost contrast must be reported: SAT-Match mints IDs, PROP-G none.
	if !strings.Contains(g.res.Notes[0], "minted") || !strings.Contains(g.res.Notes[0], "PROP-G minted 0") {
		t.Errorf("notes missing the minted-identifier contrast: %v", g.res.Notes)
	}
}

package experiment

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
// ("render"), twelve metrics streams ("stream"; two of them a folded
// study's share of its row's stream) and the numbers of every folded
// study ("series", see folded). A run is an ID, or an ID and
// " al-mode=<mode>" for a run with Options.ALMode set. Double-run
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

// folded lists the studies that once had an ID of their own and now run
// as series of a larger row: the retired ID, the row that runs it, and
// that row's labels for the retired row's series, in their old order.
// The "series <old>" goldens were recorded from the retired rows, so a
// folded study must keep its (x, y) values bit for bit. A retired row that
// had a pinned metrics stream names the prefix its metrics carry in its
// row's stream; that share is pinned as "stream <old>".
var folded = []struct {
	old, id string
	labels  []string
	stream  string
}{
	{"chordchurn", "churn", []string{"Chord: probes/node/min", "Chord: stretch", "Chord: correct fraction"}, ""},
	{"combo", "proximity", []string{"Chord", "CAN"}, ""},
	{"figRa", "figR", []string{"loss: PROP-G", "loss: PROP-O (m=2)", "loss: unoptimized"}, "figR/loss/"},
	{"figRb", "figR", []string{"crash: PROP-G stretch", "crash: corpses repaired"}, "figR/crash/"},
	{"minvar", "ablation", []string{"minvar: final mean link latency (ms)", "minvar: exchanges executed"}, ""},
	{"warmup", "ablation", []string{"warmup: final mean link latency (ms)", "warmup: probes per node"}, ""},
}

// foldedSeries returns the series of the folded study f from its row's
// golden run.
func foldedSeries(t *testing.T, f int) []stats.Series {
	t.Helper()
	g := golden(t, folded[f].id)
	var ss []stats.Series
	for _, label := range folded[f].labels {
		ss = append(ss, g.series(t, label))
	}
	return ss
}

// runStream returns run's pinned metrics stream: its golden run's stream,
// or, for a folded study, the lines of its row's stream whose metric names
// carry the study's prefix.
func runStream(t *testing.T, run string) []byte {
	t.Helper()
	for _, f := range folded {
		if f.old == run && f.stream != "" {
			var b []byte
			for _, line := range bytes.SplitAfter(golden(t, f.id).stream, []byte("\n")) {
				if bytes.Contains(line, []byte(`"name":"`+f.stream)) {
					b = append(b, line...)
				}
			}
			return b
		}
	}
	return golden(t, run).stream
}

// seriesDigest is the bytes a "series" golden hashes: each series' length
// and then its x and y values as little-endian float64 bits. Labels are
// left out, so a study keeps its digest when its row renames them.
func seriesDigest(ss []stats.Series) []byte {
	var b []byte
	for _, s := range ss {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s.X)))
		for i := range s.X {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.X[i]))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Y[i]))
		}
	}
	return b
}

// seedProbes is one ID per trial runner — the runners several rows share
// (timeSeries, sweepTrial) and each row-specific one. A
// different seed must change its series; the rendered table alone would
// differ by its seed note. The figR* rows and the ladders are probed by
// TestFigRMetricsByteDeterminism and TestFig5aScaleStreamDeterministic.
var seedProbes = map[string]bool{
	"fig5c": true, "fig7": true, "overhead": true, "churn": true, "proximity": true,
	"traffic": true, "ablation": true, "inflight": true, "satmatch": true,
}

// TestExperimentsDeterministic is the determinism regression: every
// experiment's rendered table must match its golden digest (trials run in
// parallel goroutines, so this also guards against scheduling-order leaks
// into results), and for one ID per runner a different seed must change
// the series. Each folded study's numbers must match the digest recorded
// from its retired row.
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
	for f := range folded {
		f := f
		t.Run(folded[f].old, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, "series "+folded[f].old, seriesDigest(foldedSeries(t, f)))
		})
	}
}

// TestMetricsStreamDeterministic is the observability half: the full JSONL
// metrics stream — counters (including the oracle query counter),
// histograms, series samples, and sim-clock spans — of every pinned ID
// must match its golden digest. Trials run in parallel goroutines and the
// lookup evaluators fan out across cores, so this guards the whole
// instrumentation path against scheduling- and map-iteration-order leaks
// (DESIGN.md §8). A folded study's share of its row's stream is pinned
// under the retired ID, so a moved digest names the half that moved.
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
	if runtime.GOARCH == "amd64" && len(pinned) != 12 {
		t.Fatalf("%d pinned streams, want 12: %v", len(pinned), pinned)
	}
	for _, run := range pinned {
		run := run
		t.Run(run, func(t *testing.T) {
			t.Parallel()
			stream := runStream(t, run)
			if !bytes.Contains(stream, []byte(`"kind":"sample"`)) {
				t.Errorf("%s stream has no series samples — instrumentation not wired", run)
			}
			if !bytes.Contains(stream, []byte(`"kind":"span"`)) {
				t.Errorf("%s stream has no phase spans — instrumentation not wired", run)
			}
			checkGolden(t, "stream "+run, stream)
		})
	}
}

// TestAllExperimentsSmoke verifies every experiment's structural contract
// on its golden run: at least one series, every series non-empty and
// rectangular, no NaN/Inf values, and notes documenting the setup. Each
// folded study must still be present, with sound series, in its row.
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
			checkSeriesSound(t, res.Series)
			if len(res.Notes) == 0 {
				t.Fatal("no notes — every experiment documents its setup")
			}
		})
	}
	for f := range folded {
		f := f
		t.Run(folded[f].old, func(t *testing.T) {
			t.Parallel()
			checkSeriesSound(t, foldedSeries(t, f))
		})
	}
}

// checkSeriesSound fails unless every series is non-empty and rectangular
// and has no NaN/Inf values.
func checkSeriesSound(t *testing.T, ss []stats.Series) {
	t.Helper()
	for _, s := range ss {
		if len(s.X) == 0 {
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

// final is a curve's last y value, or NaN for an empty series.
func final(s stats.Series) float64 {
	if len(s.Y) == 0 {
		return math.NaN()
	}
	return s.Y[len(s.Y)-1]
}

// improvedBy reports whether the series ends at most frac of its start.
func improvedBy(s stats.Series, frac float64) bool {
	return len(s.X) >= 2 && final(s) <= s.Y[0]*frac
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
	if tail := final(probes); tail >= peak {
		t.Errorf("probe rate did not decay after churn: peak=%.3f tail=%.3f", peak, tail)
	}
}

func TestFig5aShape(t *testing.T) {
	g := golden(t, "fig5a")
	h1, h2 := g.series(t, "n=1000, nhops=1"), g.series(t, "n=1000, nhops=2")
	// nhops >= 2 and random must improve latency substantially.
	for _, s := range []stats.Series{h2, g.series(t, "n=1000, nhops=4"), g.series(t, "n=1000, random")} {
		if !improvedBy(s, 0.9) {
			t.Errorf("%s did not improve enough: %.1f -> %.1f", s.Label, s.Y[0], final(s))
		}
	}
	// nhops=1 must improve less than nhops=2.
	if drop1, drop2 := h1.Y[0]-final(h1), h2.Y[0]-final(h2); drop1 >= drop2 {
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
	if dl, ds := large.Y[0]-final(large), small.Y[0]-final(small); dl <= ds {
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
		t.Errorf("chord stretch did not improve: %.2f -> %.2f", s.Y[0], final(s))
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
	if final(propG) <= propG.Y[0] {
		t.Errorf("PROP-G not worsening toward fast lookups: %v", propG.Y)
	}
	// "The delay for PROP-O keeps decreasing"; by x=1 the best PROP-O
	// variant beats LTM.
	bestO := math.Inf(1)
	for _, s := range propO {
		if final(s) >= s.Y[0] {
			t.Errorf("%s not improving toward fast lookups: %v", s.Label, s.Y)
		}
		bestO = math.Min(bestO, final(s))
	}
	if bestO >= final(ltmS) {
		t.Errorf("at x=1 best PROP-O (%.3f) not better than LTM (%.3f)", bestO, final(ltmS))
	}
}

func TestOverheadShape(t *testing.T) {
	g := golden(t, "overhead")
	measured, model := g.series(t, "measured msgs/adjustment"), g.series(t, "model nhops+2c | nhops+2m")
	if len(measured.X) != 4 || len(model.X) != 4 {
		t.Fatalf("series lengths: %d, %d", len(measured.X), len(model.X))
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
	churnSpike(t, golden(t, "churn").series(t, "Gnutella: probes/node/min"))
}

func TestChordChurnShape(t *testing.T) {
	g := golden(t, "churn")
	// The structured invariant: every sampled lookup reaches the true
	// owner at every minute, churn or not.
	correct := g.series(t, "Chord: correct fraction")
	for i, y := range correct.Y {
		if y != 1.0 {
			t.Errorf("minute %v: correct fraction %.4f", correct.X[i], y)
		}
	}
	churnSpike(t, g.series(t, "Chord: probes/node/min"))
}

func TestComboShape(t *testing.T) {
	g := golden(t, "proximity")
	for _, label := range []string{"Chord", "CAN"} {
		s := g.series(t, label)
		if len(s.X) != 4 {
			t.Fatalf("%s has %d points", s.Label, len(s.X))
		}
		// The combination and PROP-G alone must both beat plain.
		if plain := s.Y[0]; s.Y[3] >= plain || s.Y[2] >= plain {
			t.Errorf("%s: combined %.2f / PROP-G alone %.2f not better than plain %.2f", s.Label, s.Y[3], s.Y[2], plain)
		}
	}
}

func TestWarmupAblationShape(t *testing.T) {
	g := golden(t, "ablation")
	latency, probes := g.series(t, "warmup: final mean link latency (ms)"), g.series(t, "warmup: probes per node")
	if len(latency.X) != 6 || len(probes.X) != 6 {
		t.Fatalf("series lengths %d/%d", len(latency.X), len(probes.X))
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
	g := golden(t, "ablation")
	latency, exchanges := g.series(t, "minvar: final mean link latency (ms)"), g.series(t, "minvar: exchanges executed")
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
	if len(latency.X) != 6 || len(harmful.X) != 6 {
		t.Fatalf("series shapes: %d/%d", len(latency.X), len(harmful.X))
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
	if len(msgs.X) != 4 || len(traffic.X) != 4 {
		t.Fatalf("series shapes: %d/%d", len(msgs.X), len(traffic.X))
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

func TestInflightShape(t *testing.T) {
	g := golden(t, "inflight")
	correct, stale, exchanges := g.series(t, "correct fraction"), g.series(t, "stale arrivals per 1000 lookups"), g.series(t, "exchanges during run")
	if len(correct.X) != 4 {
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
	if final(plain) != plain.Y[0] {
		t.Errorf("unoptimized ring drifted: %.3f -> %.3f", plain.Y[0], final(plain))
	}
	if final(sat) >= final(plain) || final(prop) >= final(plain) {
		t.Errorf("SAT-Match %.3f / PROP-G %.3f not below plain %.3f", final(sat), final(prop), final(plain))
	}
	// The cost contrast must be reported: SAT-Match mints IDs, PROP-G none.
	if !strings.Contains(g.res.Notes[0], "minted") || !strings.Contains(g.res.Notes[0], "PROP-G minted 0") {
		t.Errorf("notes missing the minted-identifier contrast: %v", g.res.Notes)
	}
}

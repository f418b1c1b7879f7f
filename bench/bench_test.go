package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantileHelpers(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); !near(got, 2) {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := p99(xs); !near(got, 9.91) {
		t.Errorf("p99 = %v, want 9.91", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("quantile 0 = %v, want the minimum", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if xs[0] != 9 {
		t.Error("helpers must not reorder their input")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{Name: "bench.run", StartNS: 0, EndNS: ms(100), Parent: -1},
		{Name: "core.run", StartNS: ms(10), EndNS: ms(40), Parent: 0},
		{Name: "metrics.eval", StartNS: ms(40), EndNS: ms(90), Parent: 0},
		// Two overlapping children of metrics.eval (concurrent workers)
		// and one reaching past its parent's end.
		{Name: "overlay.flood", StartNS: ms(45), EndNS: ms(65), Parent: 2},
		{Name: "overlay.flood", StartNS: ms(55), EndNS: ms(75), Parent: 2},
		{Name: "overlay.flood", StartNS: ms(85), EndNS: ms(95), Parent: 2},
	}
	spans = append(spans, span{Name: "bench.setup", StartNS: ms(100), EndNS: ms(130), Parent: -1})
	if all := selfTimes(spans, -1); !near(all["bench"], 0.050) {
		t.Errorf("self time of bench over every span = %v, want 0.050", all["bench"])
	}
	got := selfTimes(spans, 0) // the run subtree only
	want := map[string]float64{
		"bench":   0.020, // 100 − (30 + 50)
		"core":    0.030,
		"metrics": 0.015, // 50 − union(45–75, 85–90) = 50 − 35
		"overlay": 0.050, // leaves keep their full durations
	}
	for layer, w := range want {
		if !near(got[layer], w) {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %d of them", got, len(want))
	}
}

func TestJudge(t *testing.T) {
	m := metricSpec{Name: "run_s", Better: lower, Bound: 0.10}
	steady := []float64{10, 10.1, 10.2, 9.9, 9.8}
	if v := judge("w", m, steady, steady); !v.pass || v.warn {
		t.Errorf("steady sets: %+v", v)
	}
	slower := []float64{11.5, 11.6, 11.4, 11.5, 11.5}
	if v := judge("w", m, steady, slower); v.pass {
		t.Errorf("a 15%% worse second median passed: %+v", v)
	}
	if v := judge("w", m, slower, steady); !v.pass {
		t.Errorf("a better second median failed: %+v", v)
	}
	noisy := []float64{10, 10.2, 10.4, 9.8, 9.6}
	if v := judge("w", m, noisy, noisy); !v.pass || !v.warn {
		t.Errorf("spread between half the bound and the bound should warn: %+v", v)
	}
	wild := []float64{10, 12, 14, 8, 6}
	if v := judge("w", m, wild, wild); v.pass {
		t.Errorf("spread above the bound passed: %+v", v)
	}
	if v := judge("w", metricSpec{Name: "setup_s", Better: lower, Bound: 0.10}, wild, wild); !v.pass {
		t.Errorf("setup_s is judged on its medians only: %+v", v)
	}
	up := metricSpec{Name: "success_share", Better: higher, Bound: 0.01}
	if v := judge("w", up, []float64{1, 1, 1}, []float64{0.9, 0.9, 0.9}); v.pass {
		t.Errorf("a lower success_share passed: %+v", v)
	}
}

// TestResultLine pins the contract of the last line of standard output: one
// JSON object with exactly correct, attempted, failed and metrics, carrying
// the end-to-end metrics untraced and the per-layer metrics traced.
func TestResultLine(t *testing.T) {
	res := &passResult{workload: "w", seed: 1, e2e: map[string]float64{}, layer: map[string]float64{}, self: map[string]float64{"core": 1}}
	res.out = outcome{ops: 10, opsFailed: 1, digest: 7, hasDigest: true}
	for _, traced := range []bool{false, true} {
		res.traced = traced
		var buf bytes.Buffer
		if err := printResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(line) != 4 || string(line["correct"]) != "true" || string(line["attempted"]) != "10" || string(line["failed"]) != "1" {
			t.Errorf("result line %s", lines[len(lines)-1])
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("traced %v: %d metrics on the result line, want %d", traced, len(metrics), len(want))
		}
		for _, m := range want {
			if metrics[m.Name].Unit != m.Unit {
				t.Errorf("traced %v: metric %s has unit %q, want %q", traced, m.Name, metrics[m.Name].Unit, m.Unit)
			}
		}
		if !strings.Contains(buf.String(), "sim_digest 0000000000000007") {
			t.Error("no sim_digest line")
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		unique(w.name)
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, driver {%s %s}", i, f.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json   %+v\n driver %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json   %+v\n driver %+v", f.PerLayer, perLayer)
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		unique(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if f.RunSeconds != frozenSeconds {
		t.Errorf("run_seconds %d, the sizes are frozen for %d", f.RunSeconds, frozenSeconds)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if want := []string{"go", "run", "-C", "bench", "."}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command = %v, want %v", f.Command, want)
	}
}

// tinyNet is a 64-host transit-stub world for the miniatures.
func tinyNet() NetConfig {
	return NetConfig{
		Name: "ts-tiny-bench", TransitDomains: 4, TransitNodesPerDomain: 2, StubDomainsPerTransit: 1, NodesPerStub: 8,
		StubExtraEdgeProb: 0.1, InterDomainEdgeProb: 0.5, StubStubMS: 5, StubTransitMS: 20, TransitTransitMS: 50,
	}
}

// TestMiniatureWorkloads drives every workload at n ≤ 64 through the whole
// path of a traced invocation: set-up, run, output checks, layer probes,
// trace file.
func TestMiniatureWorkloads(t *testing.T) {
	net := tinyNet()
	// own is a count only this workload's layers produce.
	minis := []struct {
		workload
		own string
	}{
		{workload{"gnutella-flood", "", setupFlood(floodSizes{net: net, peers: 48, lookups: 40, horizonMin: 12, stepMin: 2, worlds: 1, probeN: 50})}, "overlay.flood_calls"},
		{workload{"chord-faults", "", setupChord(chordSizes{net: net, lookups: 40, horizonMin: 20, stepMin: 2, worlds: 1, probeN: 50, faults: chordFrozen.faults})}, "chord.lookups"},
		{workload{"shard-262k-faults", "", setupShard(shardSizes{net: &net, horizonMin: 10, stepMin: 2, alSources: 8, floodRows: 4, faults: shardFrozen.faults})}, "shard.messages"},
		{workload{"live-loopback", "", setupLive(liveSizes{net: net, agents: 24, probes: 300, intervalM: 1, probeN: 50, deadline: 20 * time.Second})}, "transport.sent"},
	}
	for i, mini := range minis {
		wl, own := mini.workload, mini.own
		if wl.name != workloads[i].name {
			t.Fatalf("miniature %d is %s, the driver's workload %d is %s", i, wl.name, i, workloads[i].name)
		}
		t.Run(wl.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runPass(wl, 7, 1, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range endToEnd {
				if v, ok := res.e2e[m.Name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
				}
			}
			if len(res.e2e) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics emitted, %d declared", len(res.e2e), len(endToEnd))
			}
			if len(res.layer) != len(perLayer) {
				t.Errorf("%d per-layer metrics emitted, %d declared", len(res.layer), len(perLayer))
			}
			if res.out.opsFailed != 0 {
				t.Errorf("%d of %d operations failed", res.out.opsFailed, res.out.ops)
			}
			if res.layer[own] <= 0 {
				t.Errorf("%s = %v, want > 0", own, res.layer[own])
			}
			checkTraceFile(t, filepath.Join(dir, "trace-"+wl.name+".jsonl"), wl.name)

			if wl.name == "live-loopback" {
				return // a goroutine schedule is not a function of the seed
			}
			again, err := runPass(wl, 7, 1, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if again.out != res.out {
				t.Errorf("same seed, different outcome:\n traced   %+v\n untraced %+v", res.out, again.out)
			}
		})
	}
}

// checkTraceFile verifies the JSONL shape: span records whose parents point
// at earlier lines, then one counts record per layer.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, counts := 0, 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", spans+counts+1, err)
		}
		if rec["workload"] != workload {
			t.Fatalf("line %d: workload %v", spans+counts+1, rec["workload"])
		}
		if _, isCounts := rec["counts"]; isCounts {
			counts++
			continue
		}
		if counts > 0 {
			t.Fatal("a span record follows a counts record")
		}
		for _, key := range []string{"name", "start_ns", "end_ns", "parent", "world"} {
			if _, ok := rec[key]; !ok {
				t.Fatalf("span record %d lacks %q", spans, key)
			}
		}
		if p := rec["parent"].(float64); p >= float64(spans) {
			t.Fatalf("span %d names parent %v, which is not an earlier span", spans, p)
		}
		if rec["end_ns"].(float64) < rec["start_ns"].(float64) {
			t.Fatalf("span %d (%v) was never closed", spans, rec["name"])
		}
		spans++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if spans < 4 || counts < 2 {
		t.Errorf("%d spans and %d counts records, want a real trace", spans, counts)
	}
}

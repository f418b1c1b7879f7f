package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentSum(t *testing.T) {
	c := New(NewManifest("x", 1, 1, 1)).Trial(0).Counter("c")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 50, 1000} {
		h.Observe(v)
	}
	_, counts, n, sum := h.Snapshot()
	want := []uint64{2, 2, 1, 1} // <=1: {0.5,1}; <=10: {1.5,10}; <=100: {50}; over: {1000}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if n != 6 || sum != 1063 {
		t.Fatalf("n=%d sum=%g, want 6, 1063", n, sum)
	}
}

func TestGetOrCreateReturnsSameInstrument(t *testing.T) {
	tr := New(NewManifest("x", 1, 1, 1)).Trial(3)
	if tr.Counter("a") != tr.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if tr.Series("s") != tr.Series("s") {
		t.Fatal("Series not idempotent")
	}
	if tr.Index() != 3 {
		t.Fatalf("Index = %d", tr.Index())
	}
}

// TestNilSafety drives every operation through the disabled (nil) state.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.EnableWallClock()
	if r.WallClock() {
		t.Fatal("nil registry reports wall clock")
	}
	tr := r.Trial(0)
	if tr != nil {
		t.Fatal("nil registry produced a trial")
	}
	tr.Counter("c").Add(5)
	tr.Counter("c").Inc()
	if tr.Counter("c").Value() != 0 || tr.Counter("c").Name() != "" {
		t.Fatal("nil counter not inert")
	}
	tr.Gauge("g").Set(1)
	if tr.Gauge("g").Value() != 0 {
		t.Fatal("nil gauge not inert")
	}
	tr.Histogram("h", nil).Observe(1)
	tr.Series("s").Sample(0, 1)
	if tr.Series("s").Len() != 0 {
		t.Fatal("nil series not inert")
	}
	sp := tr.StartSpan("phase", 0)
	sp.End(10)
	if sp.WallMS() != 0 || sp.Name() != "" {
		t.Fatal("nil span not inert")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
	if err := r.WriteCSV(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteCSV: err=%v len=%d", err, buf.Len())
	}
	if r.Snapshot() != nil {
		t.Fatal("nil Snapshot not empty")
	}
}

// TestDisabledPathAllocs pins the disabled-path contract: instrument
// operations through a nil scope perform zero allocations.
func TestDisabledPathAllocs(t *testing.T) {
	var tr *Trial
	c := tr.Counter("c")
	s := tr.Series("s")
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		tr.Gauge("g").Set(1)
		s.Sample(0, 1)
		tr.StartSpan("p", 0).End(0)
	}); n != 0 {
		t.Fatalf("disabled-path ops allocate %v times per op, want 0", n)
	}
}

// TestEnabledCounterAllocs pins the steady-state enabled path: after
// warm-up, counter increments are allocation-free.
func TestEnabledCounterAllocs(t *testing.T) {
	c := New(NewManifest("x", 1, 1, 1)).Trial(0).Counter("c")
	c.Add(1) // warm the shard affinity
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("enabled counter allocates %v times per op, want 0", n)
	}
}

func TestEmitDeterministicAndOrdered(t *testing.T) {
	build := func() *Registry {
		r := New(NewManifest("demo", 7, 2, 0.5))
		// Create instruments out of name order, across trials out of index
		// order, to prove emission sorts.
		t1 := r.Trial(1)
		t1.Counter("zz").Add(3)
		t1.Counter("aa").Add(1)
		t0 := r.Trial(0)
		t0.Gauge("g").Set(2.5)
		t0.Series("s").Sample(0, 1)
		t0.Series("s").Sample(60000, 2)
		t0.Histogram("h", []float64{10, 100}).Observe(42)
		sp := t0.StartSpan("phase", 0)
		sp.End(60000)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two identical registries emitted different JSONL:\n%s\nvs\n%s", a.String(), b.String())
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	wantPrefix := []string{
		`{"kind":"manifest"`,
		`{"kind":"gauge","trial":0,"name":"g"`,
		`{"kind":"histogram","trial":0,"name":"h"`,
		`{"kind":"sample","trial":0,"name":"s","t_ms":0`,
		`{"kind":"sample","trial":0,"name":"s","t_ms":60000`,
		`{"kind":"span","trial":0,"name":"phase"`,
		`{"kind":"counter","trial":1,"name":"aa"`,
		`{"kind":"counter","trial":1,"name":"zz"`,
	}
	if len(lines) != len(wantPrefix) {
		t.Fatalf("got %d records, want %d:\n%s", len(lines), len(wantPrefix), a.String())
	}
	for i, p := range wantPrefix {
		if !strings.HasPrefix(lines[i], p) {
			t.Fatalf("record %d = %s, want prefix %s", i, lines[i], p)
		}
	}
	// No wall-clock fields unless enabled.
	if strings.Contains(a.String(), "wall_ms") || strings.Contains(a.String(), "unix_time") {
		t.Fatalf("wall-clock fields leaked into deterministic stream:\n%s", a.String())
	}

	var c bytes.Buffer
	if err := build().WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSpace(c.String()), "\n")
	if csvLines[0] != "kind,trial,name,t_ms,value" {
		t.Fatalf("csv header = %s", csvLines[0])
	}
	if len(csvLines) != 1+2+2+1 { // header, 2 samples, 2 counters, 1 gauge
		t.Fatalf("csv rows = %d:\n%s", len(csvLines), c.String())
	}
}

func TestWallClockEmission(t *testing.T) {
	r := New(NewManifest("demo", 1, 1, 1))
	r.EnableWallClock()
	sp := r.Trial(0).StartSpan("work", 0)
	for i := 0; i < 1000; i++ {
		_ = i
	}
	sp.End(5)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"sim_end_ms":5`) {
		t.Fatalf("span sim interval missing:\n%s", buf.String())
	}
	// wall_ms is scheduling-dependent; just confirm the field can appear.
	if sp.WallMS() < 0 {
		t.Fatal("negative wall duration")
	}
}

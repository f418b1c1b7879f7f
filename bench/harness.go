package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// instance is one set-up workload: the worlds are built, nothing has run.
type instance interface {
	// arm is the last set-up step, taken after the pre-run GC and charged to
	// setup_s: live-loopback starts its agents here, so that no agent runs
	// before the clock does. The simulators have nothing left to do.
	arm(tr *tracer, root int) error
	// run does the workload's fixed work; it is the timed region.
	run(tr *tracer, root int) error
	// check verifies the outputs and stops whatever the program still has
	// running. It is called on every pass, after the memory readings.
	check() error
	outcome() outcome
	// layers runs the post-run batch probes and records every per-layer
	// count and cost into tr. Traced passes only.
	layers(tr *tracer) error
}

// setupFunc builds an instance from the seed. scale is --seconds over the
// frozen run_seconds: each workload multiplies its one work knob (worlds,
// simulated horizon or probe target) by it, so the work is a pure function of
// (seed, seconds).
type setupFunc func(seed uint64, scale float64, tr *tracer, root int) (instance, error)

type workload struct {
	name  string
	why   string
	setup setupFunc
}

const (
	// frozenSeconds is run_seconds in BENCHMARK.json: the measuring time the
	// frozen workload sizes were tuned to on the reference machine (2 cores).
	frozenSeconds = 12
	// passes is how many times one invocation sets up and runs its fixed
	// work, so that a burst of noise from a neighbour on the machine spoils
	// one pass, not the reading: see runWorkload and reduce.
	passes = 3
)

var workloads = []workload{
	{"gnutella-flood", "Fig. 5(a) as a user runs it: flood lookups over warm oracle rows dominate, the protocol does almost nothing", setupFlood(floodFrozen)},
	{"chord-faults", "Fig. 6(a) with loss, duplication and jitter on: routed point lookups, so core probe/retransmit closures, the event heap and faults dominate", setupChord(chordFrozen)},
	{"shard-262k-faults", "one sharded-engine run at 262144 peers with loss and crash-stop churn: the only workload through the epoch loop, mailboxes and SoA handlers", setupShard(shardFrozen)},
	{"live-loopback", "256 goroutine agents over the loopback transport, closed loop to a fixed probe count: the only workload through Node.Call, the codec and mailboxes", setupLive(liveFrozen)},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled multiplies a frozen work knob by the pass scale, never below 1.
func scaled(n int, scale float64) int {
	if v := int(math.Round(float64(n) * scale)); v > 1 {
		return v
	}
	return 1
}

// passResult is what one pass measured, or several passes reduced.
type passResult struct {
	workload string
	seed     uint64
	traced   bool
	e2e      map[string]float64 // end-to-end metrics by name
	layer    map[string]float64 // per-layer metrics by name (traced only)
	self     map[string]float64 // run-phase self time in s by layer (traced only)
	out      outcome
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF cannot fail on a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const mb = 1 << 20

// runPass sets a workload up, runs its fixed work once with the clock on and
// checks the outputs; a traced pass then runs the layer probes and writes the
// trace file. An output check that fails is an error: the command fails.
func runPass(wl workload, seed uint64, scale float64, traced bool, traceDir string) (*passResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer(wl.name)
	}
	setupStart := time.Now()
	root := tr.begin("bench.setup", -1, -1)
	in, err := wl.setup(seed, scale, tr, root)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", wl.name, err)
	}
	tr.end(root)
	setupS := time.Since(setupStart).Seconds()
	runtime.GC() // not charged to either phase
	armStart := time.Now()
	root = tr.begin("bench.arm", -1, -1)
	if err := in.arm(tr, root); err != nil {
		return nil, fmt.Errorf("%s: arm: %w", wl.name, err)
	}
	tr.end(root)
	setupS += time.Since(armStart).Seconds()

	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	root = tr.begin("bench.run", -1, -1)
	runRoot := root
	t0 := time.Now()
	err = in.run(tr, root)
	runS := time.Since(t0).Seconds()
	tr.end(root)
	cpuS := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", wl.name, err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m2) // the world is still reachable through in

	if err := in.check(); err != nil {
		return nil, fmt.Errorf("%s: output check: %w", wl.name, err)
	}
	out := in.outcome()
	if !(out.quality > 0 && out.quality < 1) {
		return nil, fmt.Errorf("%s: output check: quality_ratio %v not in (0,1): the optimizer did not improve the overlay", wl.name, out.quality)
	}
	if out.ops == 0 {
		return nil, fmt.Errorf("%s: output check: no operation was attempted", wl.name)
	}

	res := &passResult{workload: wl.name, seed: seed, traced: traced, out: out}
	res.e2e = map[string]float64{
		"setup_s":       setupS,
		"run_s":         runS,
		"cpu_s":         cpuS,
		"alloc_mb":      float64(m1.TotalAlloc-m0.TotalAlloc) / mb,
		"live_heap_mb":  float64(m2.HeapAlloc) / mb,
		"quality_ratio": out.quality,
		"success_share": 1 - float64(out.opsFailed+out.probesFailed)/float64(out.ops+out.probes),
	}
	if traced {
		for name, v := range res.e2e {
			tr.set("bench."+name, v)
		}
		if err := in.layers(tr); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", wl.name, err)
		}
		res.layer = layerMetrics(tr)
		res.self = selfTimes(tr.spans, runRoot)
		for layer, v := range res.self {
			tr.set(layer+".self_s", v)
		}
		if err := tr.write(filepath.Join(traceDir, "trace-"+wl.name+".jsonl")); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", wl.name, err)
		}
	}
	runtime.KeepAlive(in)
	return res, nil
}

// runWorkload is one invocation: `passes` passes, each a full set-up and run
// of 1/passes of the --seconds budget on its own seed-derived world, reduced
// per metric (reduce). Separate worlds make the quality and count metrics an
// average over `passes` worlds, which is what keeps them steady from one
// --seed to the next.
//
// A traced invocation follows every untraced pass with a traced one of the
// same world: the traced passes give the per-layer metrics, the two run_s
// readings give trace.overhead_share (a traced pass alone cannot know it),
// and on the simulators tracing must not change a single output.
func runWorkload(wl workload, seed uint64, seconds float64, traced bool, traceDir string) (*passResult, error) {
	scale := seconds / frozenSeconds
	var plain, withTrace []*passResult
	sum := &passResult{workload: wl.name, seed: seed, traced: traced}
	d := newDigest()
	for i := 0; i < passes; i++ {
		passSeed := subSeed(seed, 1000+i, 0)
		res, err := runPass(wl, passSeed, scale, false, "")
		if err != nil {
			return nil, err
		}
		plain = append(plain, res)
		sum.out.ops += res.out.ops
		sum.out.opsFailed += res.out.opsFailed
		sum.out.hasDigest = res.out.hasDigest
		d.u64(res.out.digest)
		if !traced {
			continue
		}
		tres, err := runPass(wl, passSeed, scale, true, traceDir)
		if err != nil {
			return nil, err
		}
		if a, b := res.out, tres.out; a.hasDigest && a != b {
			return nil, fmt.Errorf("%s: output check: the traced pass differs from the untraced one (digest %016x vs %016x, quality %v vs %v)",
				wl.name, b.digest, a.digest, b.quality, a.quality)
		}
		withTrace = append(withTrace, tres)
		sum.out.ops += tres.out.ops
		sum.out.opsFailed += tres.out.opsFailed
	}
	sum.out.digest = d.sum()
	sum.e2e = reduce(plain, func(r *passResult) map[string]float64 { return r.e2e })
	if traced {
		sum.layer = reduce(withTrace, func(r *passResult) map[string]float64 { return r.layer })
		sum.self = reduce(withTrace, func(r *passResult) map[string]float64 { return r.self })
		// Each traced pass is compared with the untraced pass of the same
		// world that ran just before it, under the most similar conditions.
		overhead := make([]float64, passes)
		for i := range overhead {
			u, t := plain[i].e2e["run_s"], withTrace[i].e2e["run_s"]
			overhead[i] = (t - u) / u
		}
		sum.layer["trace.overhead_share"] = median(overhead)
	}
	return sum, nil
}

// bestOf names the metrics reduced to their minimum over the passes rather
// than their median. They are the wall and CPU times of equally sized work:
// what the machine adds to them is never negative, and on the shared 2-core
// reference box it arrives in bursts of up to ten seconds that would spoil
// two passes of three, so the minimum is the steadier estimate of the cost.
var bestOf = map[string]bool{"setup_s": true, "run_s": true, "cpu_s": true}

// reduce folds one metric map per pass into one value per metric: the minimum
// for the bestOf timings, the median for everything else.
func reduce(rs []*passResult, of func(*passResult) map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name := range of(rs[0]) {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = of(r)[name]
		}
		if bestOf[name] {
			out[name] = quantile(vs, 0)
		} else {
			out[name] = median(vs)
		}
	}
	return out
}

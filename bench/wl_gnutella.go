package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// floodSizes sizes gnutella-flood. The frozen values are Fig. 5(a) as
// `propsim -exp fig5a` runs it, times `worlds` independently seeded worlds.
type floodSizes struct {
	net        NetConfig
	peers      int
	lookups    int
	horizonMin int
	stepMin    int
	worlds     int
	probeN     int // batch-probe sample count (traced pass)
}

var floodFrozen = floodSizes{net: TSLarge(), peers: 1000, lookups: 1000, horizonMin: 30, stepMin: 2, worlds: 1, probeN: 10000}

// floodRun is one variant of one world: an overlay, its protocol and engine.
type floodRun struct {
	world   int
	o       *Overlay
	p       *Protocol
	eng     *SimEngine
	lookups []Lookup
	first   float64
	last    float64
}

type floodInstance struct {
	sz     floodSizes
	worlds []*physWorld
	runs   []*floodRun
	out    outcome
	meter  floodMeter
}

// floodMeter counts and times flood evaluations from the parallel workers of
// metrics.MeanLookupLatency (traced pass only).
type floodMeter struct {
	calls  atomic.Int64
	busyNS atomic.Int64
}

func (m *floodMeter) wrap(eval LatencyEval) LatencyEval {
	return func(l Lookup) float64 {
		t := time.Now()
		v := eval(l)
		m.busyNS.Add(int64(time.Since(t)))
		m.calls.Add(1)
		return v
	}
}

func setupFlood(sz floodSizes) setupFunc {
	return func(seed uint64, scale float64, tr *tracer, root int) (instance, error) {
		nWorlds := scaled(sz.worlds, scale)
		in := &floodInstance{sz: sz}
		for w := 0; w < nWorlds; w++ {
			pw, err := newPhysWorld(sz.net, subSeed(seed, w, 0), sz.peers, tr, root, w)
			if err != nil {
				return nil, err
			}
			in.worlds = append(in.worlds, pw)
			sp := tr.begin("gnutella.build", root, w)
			for vi, v := range panelVariants {
				// Every variant starts from the identical overlay and
				// lookup set; only the protocol stream differs.
				envRand := NewRand(subSeed(seed, w, 1))
				o, err := GnutellaBuild(pw.hosts, GnutellaDefault(), pw.oracle.Latency, envRand)
				if err != nil {
					return nil, fmt.Errorf("world %d: build overlay: %w", w, err)
				}
				lookups, err := UniformLookups(o.AliveSlots(), sz.lookups, envRand)
				if err != nil {
					return nil, fmt.Errorf("world %d: draw lookups: %w", w, err)
				}
				p, eng, err := startProtocol(o, v, subSeed(seed, w, 2+vi), nil)
				if err != nil {
					return nil, fmt.Errorf("world %d: %w", w, err)
				}
				in.runs = append(in.runs, &floodRun{world: w, o: o, p: p, eng: eng, lookups: lookups})
			}
			tr.end(sp)
		}
		return in, nil
	}
}

func (in *floodInstance) arm(*tracer, int) error { return nil }

func (in *floodInstance) run(tr *tracer, root int) error {
	d := newDigest()
	ratio := 0.0
	for _, w := range in.worlds {
		w.instrument(true) // from here on: set-up's queries are not the run's
	}
	for _, r := range in.runs {
		eval := FloodEval(r.o, nil)
		if tr != nil {
			eval = in.meter.wrap(eval)
		}
		pw := in.worlds[r.world]
		for t := 0; t <= in.sz.horizonMin; t += in.sz.stepMin {
			sp := tr.begin("core.run", root, r.world)
			r.eng.RunUntil(SimTime(t * 60000))
			tr.end(sp)
			pw.instrument(false)
			sp = tr.begin("metrics.lookup_eval", root, r.world)
			mean, failed := MeanLookupLatency(r.lookups, eval)
			tr.end(sp)
			pw.instrument(true)
			in.out.ops += uint64(len(r.lookups))
			in.out.opsFailed += uint64(failed)
			d.f64(mean)
			if t == 0 {
				r.first = mean
			}
			r.last = mean
		}
		c := r.p.Counters
		in.out.probes += c.Probes
		in.out.probesFailed += exhaustedSteps(c)
		d.placement(r.o)
		d.counters(c)
		d.u64(r.eng.Steps())
		ratio += r.last / r.first
	}
	in.out.quality = ratio / float64(len(in.runs))
	in.out.digest, in.out.hasDigest = d.sum(), true
	return nil
}

func (in *floodInstance) check() error {
	for _, r := range in.runs {
		if err := r.o.CheckInvariants(); err != nil {
			return fmt.Errorf("world %d: overlay invariants: %w", r.world, err)
		}
		if !r.o.Connected() {
			return fmt.Errorf("world %d: overlay disconnected", r.world)
		}
	}
	return nil
}

func (in *floodInstance) outcome() outcome { return in.out }

func (in *floodInstance) layers(tr *tracer) error {
	// The run left the query counter attached; what it holds now is the
	// protocol phases, counted exactly. Detach it before any probe queries.
	counted, computes := oracleCounts(in.worlds)
	for _, w := range in.worlds {
		w.instrument(false)
	}
	pw := in.worlds[0]
	probeGraph(tr, pw.net.Graph)
	probeOracle(tr, pw)
	probeEvent(tr)
	tr.set("gnutella.build_s", tr.sum("gnutella.build"))

	// Flood cost on the workload's own final overlays: probeN lookups,
	// spread round-robin over every run, one call at a time.
	n := in.sz.probeN
	flood := func(i int) {
		r := in.runs[i%len(in.runs)]
		l := r.lookups[(i/len(in.runs))%len(r.lookups)]
		r.o.FloodLatency(l.Src, l.Dst, nil)
	}
	us := timeBatch(n, time.Microsecond, flood)
	// The same floods with the query counter on give oracle queries per
	// flood; the run's flood-phase queries are calls × that.
	for _, w := range in.worlds {
		w.instrument(true)
	}
	for i := 0; i < n; i++ {
		flood(i)
	}
	after, _ := oracleCounts(in.worlds)
	calls := float64(in.meter.calls.Load())
	protocolS := oracleLayers(tr, counted, calls*(after-counted)/float64(n), computes)

	tr.set("overlay.flood_calls", calls)
	tr.set("overlay.flood_busy_s", float64(in.meter.busyNS.Load())/1e9)
	tr.set("overlay.flood_us", median(us))
	tr.set("overlay.flood_p99_us", p99(us))
	tr.set("metrics.lookup_eval_s", tr.sum("metrics.lookup_eval"))

	var c CoreCounters
	var steps uint64
	for _, r := range in.runs {
		c.Add(r.p.Counters)
		steps += r.eng.Steps()
	}
	tr.set("overlay.swaps", float64(c.Exchanges))
	coreLayers(tr, c, steps, protocolS)
	return nil
}

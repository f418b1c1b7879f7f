package main

import (
	"fmt"
	"time"
)

// chordSizes sizes chord-faults: the Fig. 6(a) panel on a ring over every
// stub host of ts-large, with a lossy channel attached to the protocol.
type chordSizes struct {
	net        NetConfig
	nodes      int // ≤ 0: every stub host
	lookups    int
	horizonMin int
	stepMin    int
	worlds     int
	probeN     int
	faults     FaultConfig // Seed is set per run
}

var chordFrozen = chordSizes{
	net: TSLarge(), lookups: 1000, horizonMin: 120, stepMin: 2, worlds: 1, probeN: 10000,
	faults: FaultConfig{LossProb: 0.05, DupProb: 0.0125, JitterMS: 5},
}

// keyLookup is one fixed query of the stretch workload.
type keyLookup struct {
	src int
	key uint32
}

type chordRun struct {
	world   int
	ring    *Ring
	p       *Protocol
	eng     *SimEngine
	inj     *Injector
	lookups []keyLookup
}

type chordInstance struct {
	sz     chordSizes
	worlds []*physWorld
	runs   []*chordRun
	out    outcome
	hops   uint64
	// protocolQueries counts the oracle queries of the core.run spans; the
	// lookup loop's own queries are the rest of the run's (traced pass).
	protocolQueries, queries0 uint64
}

func setupChord(sz chordSizes) setupFunc {
	return func(seed uint64, scale float64, tr *tracer, root int) (instance, error) {
		nWorlds := scaled(sz.worlds, scale)
		in := &chordInstance{sz: sz}
		for w := 0; w < nWorlds; w++ {
			pw, err := newPhysWorld(sz.net, subSeed(seed, w, 0), sz.nodes, tr, root, w)
			if err != nil {
				return nil, err
			}
			in.worlds = append(in.worlds, pw)
			sp := tr.begin("chord.build", root, w)
			for vi, v := range panelVariants {
				envRand := NewRand(subSeed(seed, w, 1))
				ring, err := ChordBuild(pw.hosts, ChordDefault(), pw.seam(), envRand)
				if err != nil {
					return nil, fmt.Errorf("world %d: build ring: %w", w, err)
				}
				slots := ring.O.AliveSlots()
				lookups := make([]keyLookup, sz.lookups)
				for i := range lookups {
					lookups[i] = keyLookup{src: slots[envRand.Intn(len(slots))], key: RandomKey(envRand)}
				}
				fc := sz.faults
				fc.Seed = subSeed(seed, w, 10+vi)
				inj, err := NewInjector(fc)
				if err != nil {
					return nil, fmt.Errorf("world %d %s: %w", w, v.label, err)
				}
				p, eng, err := startProtocol(ring.O, v, subSeed(seed, w, 2+vi), inj)
				if err != nil {
					return nil, fmt.Errorf("world %d: %w", w, err)
				}
				in.runs = append(in.runs, &chordRun{world: w, ring: ring, p: p, eng: eng, inj: inj, lookups: lookups})
			}
			tr.end(sp)
		}
		return in, nil
	}
}

func (in *chordInstance) arm(*tracer, int) error { return nil }

// stretch routes every lookup and returns the mean ratio of routed latency
// to direct source→owner latency (the standard DHT stretch of Fig. 6).
// Lookups whose owner is the source have no ratio and are skipped.
func (in *chordInstance) stretch(r *chordRun, oracle *Oracle) float64 {
	sum, n := 0.0, 0
	for _, l := range r.lookups {
		in.out.ops++
		res, err := r.ring.Lookup(l.src, l.key, nil)
		if err != nil {
			in.out.opsFailed++
			continue
		}
		in.hops += uint64(res.Hops)
		if res.Owner == l.src {
			continue
		}
		direct := oracle.Latency(r.ring.O.HostOf(l.src), r.ring.O.HostOf(res.Owner))
		if direct <= 0 {
			continue
		}
		sum += res.Latency / direct
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (in *chordInstance) run(tr *tracer, root int) error {
	d := newDigest()
	ratio := 0.0
	for _, w := range in.worlds {
		in.queries0 += w.counted() // set-up's queries are not the run's
	}
	for _, r := range in.runs {
		pw := in.worlds[r.world]
		oracle := pw.oracle
		var first, last float64
		for t := 0; t <= in.sz.horizonMin; t += in.sz.stepMin {
			q0 := pw.counted()
			sp := tr.begin("core.run", root, r.world)
			r.eng.RunUntil(SimTime(t * 60000))
			tr.end(sp)
			in.protocolQueries += pw.counted() - q0
			sp = tr.begin("chord.lookups", root, r.world)
			last = in.stretch(r, oracle)
			tr.end(sp)
			d.f64(last)
			if t == 0 {
				first = last
			}
		}
		c := r.p.Counters
		in.out.probes += c.Probes
		in.out.probesFailed += exhaustedSteps(c)
		st := r.inj.Stats()
		d.placement(r.ring.O)
		d.counters(c)
		d.u64(r.eng.Steps(), st.Messages, st.Lost, st.Dups)
		ratio += last / first
	}
	in.out.quality = ratio / float64(len(in.runs))
	in.out.digest, in.out.hasDigest = d.sum(), true
	return nil
}

func (in *chordInstance) check() error {
	for _, r := range in.runs {
		if err := r.ring.CheckInvariants(); err != nil {
			return fmt.Errorf("world %d: ring invariants: %w", r.world, err)
		}
		if err := r.ring.O.CheckInvariants(); err != nil {
			return fmt.Errorf("world %d: overlay invariants: %w", r.world, err)
		}
	}
	return nil
}

func (in *chordInstance) outcome() outcome { return in.out }

func (in *chordInstance) layers(tr *tracer) error {
	pw := in.worlds[0]
	probeGraph(tr, pw.net.Graph)
	probeOracle(tr, pw)
	probeEvent(tr)
	tr.set("chord.build_s", tr.sum("chord.build"))

	counted, computes := oracleCounts(in.worlds) // before the probe adds its own
	us := timeBatch(in.sz.probeN, time.Microsecond, func(i int) {
		r := in.runs[i%len(in.runs)]
		l := r.lookups[(i/len(in.runs))%len(r.lookups)]
		_, _ = r.ring.Lookup(l.src, l.key, nil) // the run checked every one of these
	})
	lookups := float64(in.out.ops)
	tr.set("chord.lookups", lookups)
	tr.set("chord.lookup_us", median(us))
	tr.set("chord.lookup_busy_s", tr.sum("chord.lookups"))
	tr.set("chord.mean_hops", float64(in.hops)/lookups)

	oracleLayers(tr, counted-float64(in.queries0), 0, computes)
	protocolS := float64(in.protocolQueries) * tr.get("netsim.oracle_query_ns") / 1e9

	var c CoreCounters
	var steps uint64
	var st FaultStats
	for _, r := range in.runs {
		c.Add(r.p.Counters)
		steps += r.eng.Steps()
		s := r.inj.Stats()
		st.Messages += s.Messages
		st.Lost += s.Lost
		st.Dups += s.Dups
	}
	tr.set("overlay.swaps", float64(c.Exchanges))
	tr.set("faults.delivered", float64(st.Messages-st.Lost))
	tr.set("faults.lost", float64(st.Lost))
	tr.set("faults.dups", float64(st.Dups))
	coreLayers(tr, c, steps, protocolS)
	return nil
}

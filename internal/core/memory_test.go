package core

// The neighbor memory: each QueueEntry remembers the RTT its peer last
// measured to the neighbor, and an evaluation reads its before-legs from it
// instead of sending them.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/chord"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/gnutella"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// checkMemory holds every warm entry whose host is still its neighbor's to
// the truth between the two hosts, bit for bit, and returns how many it
// checked.
func checkMemory(t *testing.T, p *Protocol, when string) int {
	t.Helper()
	checked := 0
	for x, st := range p.nodes {
		if st == nil || !p.O.Alive(x) {
			continue
		}
		for _, qe := range st.Queue {
			if qe.host == 0 || int(qe.host) != p.O.HostOf(qe.Neighbor)+1 {
				continue
			}
			want := p.O.Latency(p.O.HostOf(x), p.O.HostOf(qe.Neighbor))
			if math.Float64bits(float64(qe.rtt)) != math.Float64bits(want) {
				t.Fatalf("%s: slot %d remembers %v to neighbor %d on host %d, the truth is %v",
					when, x, qe.rtt, qe.Neighbor, qe.host-1, want)
			}
			checked++
		}
	}
	return checked
}

// TestMemoryNeverLies runs fault-free, noise-free PROP-G and PROP-O over a
// Gnutella overlay and a Chord ring on a transit-stub underlay while hosts
// join, leave and crash (with Repair), and checks the memory after every
// probe cycle — so after every Measure step and every commit — and after
// every churn event. Under PROP-G the movers' own hosts change in every
// swap, which only the commit's rewrite of their entries accounts for.
func TestMemoryNeverLies(t *testing.T) {
	r := rng.New(48)
	world, err := netsim.Generate(netsim.TSLarge(), r)
	if err != nil {
		t.Fatal(err)
	}
	oracle := netsim.NewOracle(world)
	for _, substrate := range []string{"gnutella", "chord"} {
		for _, policy := range []Policy{PROPG, PROPO} {
			name := fmt.Sprintf("%s %v", substrate, policy)
			r := rng.New(7)
			hosts := world.PickHosts(64+8, r)
			hosts, spare := hosts[:64], hosts[64:]
			var o *overlay.Overlay
			var m overlay.Membership
			switch substrate {
			case "gnutella":
				if o, err = gnutella.Build(hosts, gnutella.DefaultConfig(), oracle.Latency, r); err != nil {
					t.Fatal(err)
				}
				m = gnutella.Net{O: o, Config: gnutella.DefaultConfig()}
			case "chord":
				ring, err := chord.Build(hosts, chord.DefaultConfig(), oracle.Latency, r)
				if err != nil {
					t.Fatal(err)
				}
				o, m = ring.O, ring
			}
			cfg := DefaultConfig(policy)
			cfg.InitTimerMS = 1000
			p, err := New(o, cfg, r)
			if err != nil {
				t.Fatal(err)
			}
			checked, exchanges := 0, 0
			p.Trace = func(ev CycleEvent) {
				checked += checkMemory(t, p, fmt.Sprintf("%s, after %v at %v", name, ev.Reason, ev.At))
				if ev.Reason == Exchanged {
					exchanges++
				}
			}
			e := event.New()
			p.Start(e)
			churn := rng.New(9)
			for step := 1; step <= 16; step++ {
				e.RunUntil(event.Time(step) * 2500)
				switch step % 4 {
				case 0: // a host joins
					slot, err := m.Join(spare[0], churn)
					if err != nil {
						t.Fatal(err)
					}
					spare = spare[1:]
					if err := p.AddNode(e, slot); err != nil {
						t.Fatal(err)
					}
				case 1: // a slot leaves gracefully
					victim := o.AliveSlotAt(churn.Intn(o.NumAlive()))
					former := o.Neighbors(victim)
					if err := m.Leave(victim, churn); err != nil {
						t.Fatal(err)
					}
					p.RemoveNode(e, victim, former)
				case 2: // a slot crashes; survivors evict it as they probe
					victim := o.AliveSlotAt(churn.Intn(o.NumAlive()))
					if err := m.Crash(victim); err != nil {
						t.Fatal(err)
					}
					p.CrashNode(victim)
				case 3: // repair completes the deaths
					if _, err := m.Repair(churn); err != nil {
						t.Fatal(err)
					}
					p.NeighborsChanged(e, o.AliveSlots()...)
				}
				checked += checkMemory(t, p, fmt.Sprintf("%s, after churn step %d", name, step))
			}
			if checked == 0 || exchanges == 0 {
				t.Fatalf("%s: %d warm entries checked, %d exchanges — the memory went untested", name, checked, exchanges)
			}
			t.Logf("%s: %d warm entries checked, %d exchanges, %d measure messages charged",
				name, checked, exchanges, p.Counters.MeasureMessages)
		}
	}
}

// TestWarmEvaluationSendsOnlyAfterLegs: once a PROP-G pair has measured its
// neighborhoods, evaluating it again delivers exactly one message per
// after-leg, counted by a zero-intensity injector, with the same RTTs bit
// for bit; and after the pair swaps, the commit's rewrite keeps it so.
func TestWarmEvaluationSendsOnlyAfterLegs(t *testing.T) {
	o, r := scrambledLineOverlay(t, 40, 5)
	cfg := DefaultConfig(PROPG)
	p, err := New(o, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	inj := mustInjector(t, faults.Config{Seed: 1})
	p.AttachFaults(inj)
	p.Start(event.New())
	u := 0
	path, ok := o.RandomWalk(u, o.Neighbors(u)[0], 2, r, new(overlay.Scratch))
	if !ok {
		t.Fatal("no walk from slot 0")
	}
	path = append([]int(nil), path...)
	v := path[len(path)-1]
	cu, cv := p.node(u), p.node(v)
	evaluate := func(minVar float64) (sent uint64, rtt []float64, why Reason) {
		p.cfg.MinVar = minVar
		cu.Fired(&p.round, o.Neighbors(u))
		ver := cv.Version()
		cu.Reached(&p.round, o, u, v, path)
		before := inj.Stats().Messages
		step := cu.Measured(&p.round, p.measurePairs(0, &p.sc))
		sent, rtt = inj.Stats().Messages-before, append([]float64(nil), p.sc.RTT...)
		if step.Kind == Commit {
			step = cu.Committed(&p.round, p.propose(0, u, ver, path))
		}
		return sent, rtt, step.Reason
	}
	cold, coldRTT, _ := evaluate(math.Inf(1))
	warm, warmRTT, _ := evaluate(math.Inf(1))
	if pairs := uint64(len(coldRTT)); cold != pairs || warm != pairs/2 {
		t.Fatalf("%d pairs: cold evaluation sent %d, warm %d; want %d and %d", pairs, cold, warm, pairs, pairs/2)
	}
	for k := range coldRTT {
		if math.Float64bits(coldRTT[k]) != math.Float64bits(warmRTT[k]) {
			t.Fatalf("pair %d: warm RTT %v, cold %v", k, warmRTT[k], coldRTT[k])
		}
	}
	if _, _, why := evaluate(math.Inf(-1)); why != Exchanged {
		t.Fatalf("forced swap ended %v", why)
	}
	if sent, rtt, _ := evaluate(math.Inf(1)); sent != uint64(len(rtt))/2 {
		t.Fatalf("after the swap the pair sent %d of %d pairs, want one per after-leg", sent, len(rtt))
	}
	checkMemory(t, p, "after the swap")
}

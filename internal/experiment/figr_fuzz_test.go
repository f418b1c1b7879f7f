package experiment

import (
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/gnutella"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// FuzzFaultScheduleInvariants throws random fault schedules — loss,
// duplication, jitter, and crash-stop deaths — at a
// small PROP-G overlay with periodic repair rounds, and requires the audit
// invariant suite to hold after every repair. Whatever the schedule, the
// hardened protocol must never corrupt the slot↔host bijection, disconnect
// the repaired overlay, or leave an unflagged corpse behind.
func FuzzFaultScheduleInvariants(f *testing.F) {
	f.Add(uint64(1), 0.05, 0.02, 10.0, uint8(3))
	f.Add(uint64(42), 0.5, 0.2, 0.0, uint8(7))
	f.Add(uint64(99), 1.0, 0.0, 50.0, uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, loss, dup, jitter float64, crashes uint8) {
		clamp01 := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(math.Abs(v), 1)
		}
		cfg := faults.Config{
			Seed:     seed,
			LossProb: clamp01(loss),
			DupProb:  clamp01(dup),
			JitterMS: clamp01(jitter) * 50,
		}
		inj, err := faults.NewInjector(cfg)
		if err != nil {
			t.Fatalf("clamped config rejected: %v", err)
		}

		r := rng.New(seed | 1)
		net, err := netsim.Generate(netsim.TSSmall(), r)
		if err != nil {
			t.Fatal(err)
		}
		oracle := netsim.NewOracle(net)
		o, err := gnutella.Build(net.PickHosts(32, r), gnutella.DefaultConfig(), oracle.Latency, r)
		if err != nil {
			t.Fatal(err)
		}
		g := gnutella.Net{O: o, Config: gnutella.DefaultConfig()}
		p, err := core.New(o, core.DefaultConfig(core.PROPG), r.Split())
		if err != nil {
			t.Fatal(err)
		}
		p.AttachFaults(inj)
		eng := event.New()
		p.Start(eng)

		postRepair := audit.New(1, 16)
		postRepair.Register(
			audit.OverlayBijection(o),
			audit.OverlayConnected(o),
			audit.Check("overlay-invariants", o.CheckInvariants),
		)

		budget := int(crashes % 12)
		for minute := 1; minute <= 10; minute++ {
			eng.RunUntil(event.Time(minute) * 60000)
			if budget > 0 {
				alive := o.AliveSlots()
				if len(alive) > 8 {
					victim := alive[r.Intn(len(alive))]
					if err := g.Crash(victim); err != nil {
						t.Fatalf("crash: %v", err)
					}
					p.CrashNode(victim)
					budget--
				}
			}
			if len(o.CrashedSlots()) > 0 {
				if _, err := g.Repair(r); err != nil {
					t.Fatalf("repair: %v", err)
				}
			}
			postRepair.CheckNow()
			if err := postRepair.Err(); err != nil {
				t.Fatalf("schedule %+v crashes=%d: audit violation: %v", cfg, crashes%12, err)
			}
		}
	})
}

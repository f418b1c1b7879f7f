package dhttest

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/propnode"
	"repro/internal/transport"
)

// TestLiveRecoverRejoin is the live battery's crash-recovery phase, on ten
// seeds: agents of a running propnode runtime, on an event.Engine,
// crash-stop under a lossy transport, the survivors' failure detectors
// repair the membership, and each victim then joins again with the same
// host identity (next incarnation) through the live bootstrap. At quiesce
// the audit invariants — slot↔host bijection, connectivity over live slots
// — must hold, and the runtime must still be probing.
func TestLiveRecoverRejoin(t *testing.T) {
	for seed := uint64(31); seed < 41; seed++ {
		inj, err := faults.NewInjector(faults.Config{Seed: 0xDEAD + seed, LossProb: 0.02, DupProb: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		e := event.New()
		rt := propnode.New(transport.NewLoopback(transport.LoopbackConfig{DelayMS: halfLine, Faults: inj}), propnode.Config{
			Policy:              core.PROPG,
			ProbeIntervalMS:     5,
			PingTimeoutMS:       15,
			HeartbeatIntervalMS: 8,
			Lat:                 lineLat,
			Seed:                seed,
			Clock:               e,
		})
		hosts := make([]int, 16)
		for i := range hosts {
			hosts[i] = i
		}
		if err := rt.Start(hosts); err != nil {
			t.Fatalf("start: %v", err)
		}
		// until steps the engine until cond holds, for at most a second.
		until := func(cond func() bool) bool {
			for end := e.Now() + 1000; !cond(); {
				if e.Now() > end || !e.Step() {
					return false
				}
			}
			return true
		}
		e.RunUntil(100)

		victims := []int{3, 8, 12}
		for _, h := range victims {
			if err := rt.Crash(h); err != nil {
				t.Fatalf("crash host %d: %v", h, err)
			}
		}
		// The survivors' detectors must clear every corpse on their own.
		if !until(func() bool { return len(rt.Overlay().CrashedSlots()) == 0 }) {
			t.Fatalf("seed %d: corpses never auto-repaired: %+v", seed, rt.Counters())
		}
		// Restart each victim with its persisted identity: a rejoin.
		for _, h := range victims {
			slot, err := rt.Join(h)
			if err != nil {
				t.Fatalf("rejoin host %d: %v", h, err)
			}
			if rt.Overlay().Degree(slot) == 0 {
				t.Fatalf("seed %d: host %d rejoined with no links", seed, h)
			}
		}
		if got := rt.Counters().Recovers; got != uint64(len(victims)) {
			t.Fatalf("Recovers = %d, want %d", got, len(victims))
		}
		// The rejoined agents must be live on the wire: the runtime probes
		// on, then quiesces for the audit.
		probes := rt.Counters().Probes
		if !until(func() bool { return rt.Counters().Probes > probes+20 }) {
			t.Fatalf("seed %d: probing stopped after the rejoins: %+v", seed, rt.Counters())
		}
		rt.Stop()

		o := rt.Overlay()
		au := audit.New(1, 16)
		au.Register(audit.OverlayBijection(o), audit.OverlayConnected(o))
		au.CheckNow()
		if err := au.Err(); err != nil {
			t.Fatalf("seed %d: audit at quiesce (%s): %v", seed, au.Summary(), err)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: overlay invariants at quiesce: %v", seed, err)
		}
		if c := rt.Counters(); c.AutoRepairs == 0 {
			t.Fatalf("seed %d: repair never went through the detector path: %+v", seed, c)
		}
	}
}

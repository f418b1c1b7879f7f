package dhttest

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/overlay"
	"repro/internal/propnode"
	"repro/internal/transport"
)

// TestLiveRecoverRejoin is the live battery's crash-recovery phase: agents
// of a running propnode runtime crash-stop under a lossy transport, the
// survivors' failure detectors repair the membership, and each victim then
// joins again with the same host identity (next incarnation) through the
// live bootstrap. At quiesce the audit invariants — slot↔host
// bijection, connectivity over live slots — must hold, and every recovered
// host must be answering traffic again. Runs under -race in the CI live job.
func TestLiveRecoverRejoin(t *testing.T) {
	inj, err := faults.NewInjector(faults.Config{Seed: 0xDEAD, LossProb: 0.02, DupProb: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback(transport.LoopbackConfig{DelayMS: halfLine, Faults: inj})
	rt := propnode.New(lb, propnode.Config{
		Policy:              core.PROPG,
		ProbeIntervalMS:     5,
		PingTimeout:         15 * time.Millisecond,
		HeartbeatIntervalMS: 8,
		Lat:                 lineLat,
		Seed:                31,
	})
	hosts := make([]int, 16)
	for i := range hosts {
		hosts[i] = i
	}
	if err := rt.Start(hosts); err != nil {
		t.Fatalf("start: %v", err)
	}

	waitFor := func(d time.Duration, cond func() bool) bool {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if cond() {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return cond()
	}

	victims := []int{3, 8, 12}
	for _, h := range victims {
		if err := rt.Crash(h); err != nil {
			t.Fatalf("crash host %d: %v", h, err)
		}
	}
	// The survivors' detectors must clear every corpse on their own.
	if !waitFor(10*time.Second, func() bool {
		var unpurged int
		rt.View(func(o *overlay.Overlay) { unpurged = len(o.CrashedSlots()) })
		return unpurged == 0
	}) {
		t.Fatalf("corpses never auto-repaired: %+v", rt.Counters())
	}

	// Restart each victim with its persisted identity: a rejoin.
	for _, h := range victims {
		slot, err := rt.Join(h)
		if err != nil {
			t.Fatalf("rejoin host %d: %v", h, err)
		}
		var deg int
		rt.View(func(o *overlay.Overlay) { deg = o.Degree(slot) })
		if deg == 0 {
			t.Fatalf("host %d rejoined with no links", h)
		}
	}
	if got := rt.Counters().Recovers; got != uint64(len(victims)) {
		t.Fatalf("Recovers = %d, want %d", got, len(victims))
	}

	// The rejoined agents must be live on the wire: give the runtime a
	// moment to probe through them, then quiesce and audit.
	probes := rt.Counters().Probes
	waitFor(5*time.Second, func() bool { return rt.Counters().Probes > probes+20 })
	rt.Stop()

	o := rt.Overlay()
	au := audit.New(1, 16)
	au.Register(audit.OverlayBijection(o), audit.OverlayConnected(o))
	au.CheckNow()
	if err := au.Err(); err != nil {
		t.Fatalf("audit at quiesce (%s): %v", au.Summary(), err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants at quiesce: %v", err)
	}
	c := rt.Counters()
	if c.AutoRepairs == 0 {
		t.Fatalf("repair never went through the detector path: %+v", c)
	}
	t.Logf("recover-rejoin battery: %+v", c)
}

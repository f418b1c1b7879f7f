package propnode

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// refusingNet is a loopback whose Open refuses one host.
type refusingNet struct {
	*transport.Loopback
	refused int
}

func (n refusingNet) Open(host int) (transport.Endpoint, error) {
	if host == n.refused {
		return nil, errors.New("refused")
	}
	return n.Loopback.Open(host)
}

// ghostsLocked reports the first live slot whose host has no agent, or agent
// whose host backs no live slot — "" when membership and agents agree.
// Caller holds rt.mu.
func (rt *Runtime) ghostsLocked() string {
	for _, s := range rt.o.AliveSlots() {
		if h := rt.o.HostOf(s); rt.agents[h] == nil {
			return "live slot without an agent"
		}
	}
	for h, a := range rt.agents {
		if a.host != h || !rt.o.Alive(rt.o.SlotOfHost(h)) {
			return "agent without a live slot"
		}
	}
	return ""
}

// TestJoinRefusedEndpointLeavesNoGhost pins the bugfix: a Join whose
// endpoint cannot open must change nothing. The membership join used to run
// first, leaving the host wired into the overlay with no agent behind it.
func TestJoinRefusedEndpointLeavesNoGhost(t *testing.T) {
	lb := transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf})
	rt := New(refusingNet{lb, 99}, Config{Policy: core.PROPG, Seed: 5, ProbeIntervalMS: 3, Lat: ClusterLat})
	if err := rt.Start(hostsN(8)); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer rt.Stop()

	if _, err := rt.Join(99); err == nil {
		t.Fatal("join over a refused endpoint succeeded")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if n := rt.o.NumAlive(); n != 8 {
		t.Fatalf("NumAlive = %d after a refused join, want 8", n)
	}
	if s := rt.o.SlotOfHost(99); s >= 0 {
		t.Fatalf("refused host 99 backs slot %d", s)
	}
	if g := rt.ghostsLocked(); g != "" {
		t.Fatal(g)
	}
}

// TestCrashJoinRaceLeavesNoGhost races Crash, Join and Leave of the same few
// hosts. Whichever call wins each race, and whichever fail, once they have
// all returned every live slot's host has an agent and every agent's host
// backs a live slot. The CI live job runs it under -race.
func TestCrashJoinRaceLeavesNoGhost(t *testing.T) {
	rt := startRuntime(t, 12, Config{Policy: core.PROPG, Seed: 6}, nil)
	defer rt.Stop()

	racers := []int{2, 5, 7}
	for round := 0; round < 30; round++ {
		var wg sync.WaitGroup
		for _, h := range racers {
			for op := 0; op < 3; op++ {
				wg.Add(1)
				go func(h, op int) {
					defer wg.Done()
					// A call that loses its race fails; only the state
					// the calls leave behind is checked.
					switch (op + round) % 3 {
					case 0:
						_ = rt.Crash(h)
					case 1:
						_, _ = rt.Join(h)
					case 2:
						_ = rt.Leave(h)
					}
				}(h, op)
			}
		}
		wg.Wait()

		rt.mu.Lock()
		g := rt.ghostsLocked()
		rt.mu.Unlock()
		if g != "" {
			t.Fatalf("round %d: %s", round, g)
		}
		// Bring every racer back for the next round; Join refuses a host
		// that is still live.
		for _, h := range racers {
			_, _ = rt.Join(h)
		}
	}
	if _, err := rt.Repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
}

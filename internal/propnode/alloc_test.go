//go:build !race

package propnode

// Allocation gates for the agents' per-message paths. The race detector's
// instrumentation allocates behind the scenes (and its sync.Pool drops
// items at random), so exact pins only mean something without it.

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/transport"
)

// TestWalkForwardAllocatesNothing pins a warm walk hop at 0 allocations: the
// handler forwards the walk from a pooled path, the last hop closes it back
// to the origin, and the origin's node absorbs the reply no call awaits.
func TestWalkForwardAllocatesNothing(t *testing.T) {
	var closed atomic.Uint64
	net := &hookNet{Loopback: transport.NewLoopback(transport.LoopbackConfig{DelayMS: clusterHalf}),
		onSend: func(_, _ int, m transport.Message) {
			if m.Type == transport.TWalkReply && m.TTL == 1 && len(m.Path) == 3 {
				closed.Add(1)
			}
		}}
	rt := quietRuntime(t, 16, core.PROPG, net, 1000, event.New())
	defer rt.Stop()
	o := rt.Overlay()
	u := o.SlotOfHost(0)
	s := o.Neighbors(u)[0]
	hop := rt.agents[o.HostOf(s)]
	walk := transport.Message{Type: transport.TWalk, TTL: 1, Key: 0, Path: []int{u, s}}
	forward := func() { rt.handleWalk(hop, walk) }

	for range 100 { // warm the path and delivery pools
		forward()
	}
	if got := closed.Load(); got != 100 {
		t.Fatalf("%d walks of 100 reached their last hop and closed", got)
	}
	if got := testing.AllocsPerRun(2000, forward); got != 0 {
		t.Fatalf("%v allocations per warm walk forward, want 0", got)
	}
}

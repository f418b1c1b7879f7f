// Package livesim runs message-level DHT lookups *concurrently* with PROP
// exchanges on the same simulated clock, reproducing the §3.2 correctness
// mechanism the coarse experiments abstract away:
//
//	"Both of them cache the address of their counterparts so that the
//	 lookups in progress during peer-exchange can be forwarded correctly."
//
// In the slot/host model a routing step resolves a logical position (slot)
// to a machine address (host) at *send* time; the message then spends
// d(sender, addressee) milliseconds in flight. If the addressee executes a
// PROP-G exchange during that flight, the message arrives at a machine
// that no longer plays the expected overlay role. The machine's counterpart
// cache — written at exchange time — redirects the message one extra hop to
// the machine that took over its position, exactly as the paper prescribes
// (and exactly the "two hops instead of one" cost §4.2 discusses). If the
// cache cannot resolve the role (a second exchange raced the redirect), the
// sender re-resolves against its updated routing entry — the paper's
// neighbor-notification path — and the lookup continues.
//
// Key types: Sim and Summary. See DESIGN.md §6 (failure injection) and the
// "inflight" experiment in EXPERIMENTS.md.
package livesim

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/event"
)

// Outcome describes one completed lookup.
type Outcome struct {
	// Key is the looked-up identifier.
	Key uint32
	// Correct reports whether the lookup terminated at the true owner slot.
	Correct bool
	// Hops is the number of routing hops (excluding redirects).
	Hops int
	// Redirects is the number of counterpart-cache forwards taken.
	Redirects int
	// Reresolves is the number of times a stale hop had to be re-resolved
	// via the sender's (already notified) routing state.
	Reresolves int
	// Latency is the total time from issue to completion in ms.
	Latency float64
}

// Sim couples one Chord ring, one PROP protocol, and one event engine, and
// issues lookups whose hops interleave with protocol exchanges.
type Sim struct {
	Ring *chord.Ring
	Prop *core.Protocol

	// Audit, if non-nil, observes every completed lookup as a KindLookup
	// record (A = issue slot, B = terminal slot, Aux = [hops, redirects,
	// reresolves], Val = latency) and records an incorrect termination as an
	// audit violation.
	Audit *audit.Auditor

	// Outcomes collects every finished lookup.
	Outcomes []Outcome

	counterpart map[int]int // host -> host that took over its last slot
	maxHops     int
}

// New wires a Sim: it installs a Trace hook on prop to maintain the
// counterpart caches. The caller must not overwrite prop.Trace afterwards.
func New(ring *chord.Ring, prop *core.Protocol) (*Sim, error) {
	if ring == nil || prop == nil {
		return nil, fmt.Errorf("livesim: nil ring or protocol")
	}
	if prop.O != ring.O {
		return nil, fmt.Errorf("livesim: protocol and ring use different overlays")
	}
	s := &Sim{
		Ring:        ring,
		Prop:        prop,
		counterpart: make(map[int]int),
		maxHops:     ring.O.NumSlots() + 64,
	}
	prev := prop.Trace
	prop.Trace = func(ev core.CycleEvent) {
		if ev.Reason == core.Exchanged {
			// After a PROP-G swap of slots u,v the host now at u used to be
			// at v and vice versa: each machine's counterpart is the machine
			// that took over its previous position.
			hu := ring.O.HostOf(ev.U) // held v before the swap
			hv := ring.O.HostOf(ev.V) // held u before the swap
			s.counterpart[hu] = hv
			s.counterpart[hv] = hu
		}
		if prev != nil {
			prev(ev)
		}
	}
	return s, nil
}

// IssueLookup schedules a lookup for key from slot src at time at. The
// lookup proceeds hop by hop on the engine clock; its Outcome is appended
// when it terminates.
func (s *Sim) IssueLookup(e *event.Engine, at event.Time, src int, key uint32) {
	e.At(at, func(en *event.Engine) {
		s.hop(en, lookupState{key: key, src: src, slot: src, issued: en.Now()})
	})
}

type lookupState struct {
	key        uint32
	src        int // slot the lookup was issued from
	slot       int // slot whose role is currently processing the lookup
	hops       int
	redirects  int
	reresolves int
	issued     event.Time
}

// hop executes one routing decision at st.slot and sends the message.
func (s *Sim) hop(e *event.Engine, st lookupState) {
	if st.hops > s.maxHops {
		s.finish(e, st, false)
		return
	}
	if s.Ring.IsOwner(st.slot, st.key) {
		s.finish(e, st, true)
		return
	}
	next := s.Ring.NextHopSlot(st.slot, st.key)
	if next == st.slot {
		s.finish(e, st, s.Ring.IsOwner(st.slot, st.key))
		return
	}
	// Resolve the logical position to a machine *now*; the flight takes
	// d(sender, addressee). An exchange during the flight makes the
	// address stale.
	addressee := s.Ring.O.HostOf(next)
	flight := event.Time(s.Ring.O.Dist(st.slot, next))
	st.hops++
	e.After(flight, func(en *event.Engine) {
		s.arrive(en, st, next, addressee, 0)
	})
}

// arrive handles the message reaching a machine that is expected to hold
// slot expected.
func (s *Sim) arrive(e *event.Engine, st lookupState, expected, atHost, chain int) {
	if s.Ring.O.SlotOfHost(atHost) == expected {
		// The machine still (or again) plays the expected role; continue.
		st.slot = expected
		s.hop(e, st)
		return
	}
	// Stale: the machine was exchanged mid-flight. Follow its counterpart
	// cache once; a longer chain means a second exchange raced us, in which
	// case we re-resolve from the (notified) current truth.
	if chain < 1 {
		if cp, ok := s.counterpart[atHost]; ok {
			st.redirects++
			hopLat := event.Time(latencyBetweenHosts(s, atHost, cp))
			e.After(hopLat, func(en *event.Engine) {
				s.arrive(en, st, expected, cp, chain+1)
			})
			return
		}
	}
	// Re-resolve: the routing entries of the expected slot's neighbors have
	// been rewritten by the exchange notifications; route to the slot's
	// current machine directly.
	st.reresolves++
	cur := s.Ring.O.HostOf(expected)
	hopLat := event.Time(latencyBetweenHosts(s, atHost, cur))
	e.After(hopLat, func(en *event.Engine) {
		if s.Ring.O.SlotOfHost(cur) == expected {
			st.slot = expected
			s.hop(en, st)
			return
		}
		// Exchanged yet again mid-flight; try once more from scratch.
		s.arrive(en, st, expected, s.Ring.O.HostOf(expected), 0)
	})
}

// latencyBetweenHosts measures host-to-host latency through the overlay's
// latency function by probing via slots (hosts are only addressable through
// the oracle the overlay holds). Both hosts are live by construction.
func latencyBetweenHosts(s *Sim, a, b int) float64 {
	sa, sb := s.Ring.O.SlotOfHost(a), s.Ring.O.SlotOfHost(b)
	if sa >= 0 && sb >= 0 {
		return s.Ring.O.Dist(sa, sb)
	}
	return 0
}

func (s *Sim) finish(e *event.Engine, st lookupState, correct bool) {
	out := Outcome{
		Key:        st.key,
		Correct:    correct && s.Ring.IsOwner(st.slot, st.key),
		Hops:       st.hops,
		Redirects:  st.redirects,
		Reresolves: st.reresolves,
		Latency:    float64(e.Now() - st.issued),
	}
	s.Outcomes = append(s.Outcomes, out)
	if s.Audit != nil {
		s.Audit.Observe(audit.Record{
			At: float64(e.Now()), Kind: audit.KindLookup,
			A: st.src, B: st.slot,
			Aux: []int{st.hops, st.redirects, st.reresolves},
			Val: out.Latency,
		})
		if !out.Correct {
			s.Audit.Fail("livesim-lookup-correct", fmt.Errorf(
				"lookup for key %d from slot %d terminated at slot %d (owner %d) after %d hops",
				st.key, st.src, st.slot, s.Ring.Owner(st.key), st.hops))
		}
	}
}

// Summary aggregates outcomes.
type Summary struct {
	Lookups    int
	Correct    int
	Redirects  int
	Reresolves int
	MeanHops   float64
	MeanMS     float64
}

// Summarize reduces the collected outcomes.
func (s *Sim) Summarize() Summary {
	sum := Summary{Lookups: len(s.Outcomes)}
	if sum.Lookups == 0 {
		return sum
	}
	totalHops, totalMS := 0, 0.0
	for _, o := range s.Outcomes {
		if o.Correct {
			sum.Correct++
		}
		sum.Redirects += o.Redirects
		sum.Reresolves += o.Reresolves
		totalHops += o.Hops
		totalMS += o.Latency
	}
	sum.MeanHops = float64(totalHops) / float64(sum.Lookups)
	sum.MeanMS = totalMS / float64(sum.Lookups)
	return sum
}

// Package dhttest provides a conformance harness run by every DHT
// substrate's test suite (Chord, CAN). The reproduction
// leans on the same contract from each geometry — deterministic ownership,
// lookups that terminate at the owner, and invariance of routing under
// PROP-G host swaps — so the contract is encoded once and each package plugs
// in an adapter.
//
// Key types: DHT (the adapter each substrate implements) and Run (the
// battery). See DESIGN.md §6 ("Conformance").
package dhttest

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// DHT is the adapter each substrate implements for the harness: the
// substrate's own membership rule plus keyed ownership, routing and a
// structural self-check. Keys are uint32; substrates with a different key
// space (CAN's points) map them deterministically.
type DHT interface {
	overlay.Membership
	// Overlay exposes the underlying slot/host overlay.
	Overlay() *overlay.Overlay
	// Owner returns the slot responsible for key.
	Owner(key uint32) int
	// Lookup routes from src toward key through overlay.Route: the
	// substrate's next-hop rule from src until Owner(key).
	Lookup(src int, key uint32) (overlay.LookupResult, error)
	// CheckInvariants is the substrate's structural self-check (Chord ring
	// order, CAN tiling), audited after every membership change.
	CheckInvariants() error
}

// Builder constructs a DHT instance over the given hosts for one test.
type Builder func(hosts []int, lat overlay.LatencyFunc, r *rng.Rand) (DHT, error)

// maker builds an n-slot DHT from seed for one test, over the harness's
// hosts and one latency plane.
type maker func(n int, seed uint64) DHT

// makerOf binds build to t and a latency plane. Host i is i*7.
func makerOf(t *testing.T, build Builder, lat overlay.LatencyFunc) maker {
	return func(n int, seed uint64) DHT {
		t.Helper()
		hosts := make([]int, n)
		for i := range hosts {
			hosts[i] = i * 7
		}
		d, err := build(hosts, lat, rng.New(seed))
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return d
	}
}

// lineLat is the harness's deterministic latency function.
func lineLat(a, b int) float64 { return math.Abs(float64(a - b)) }

// halfLine is lineLat as the per-leg virtual delay the loopback charges:
// d/2 + d/2 == d, so measured RTTs equal lineLat float-exactly.
func halfLine(a, b int) float64 { return lineLat(a, b) / 2 }

// latSource hands each subtest its latency plane. The sim backend returns
// lineLat directly; the live backend builds a fresh LiveLatency whose
// answers are real ping RTTs over the loopback transport, charged lineLat/2
// per leg so measured round trips equal lineLat float-exactly — which is
// what lets every battery assertion, including the exact-arithmetic ones,
// run unmodified against both backends.
type latSource func(t *testing.T) overlay.LatencyFunc

func simLat(t *testing.T) overlay.LatencyFunc { return lineLat }

func liveLat(t *testing.T) overlay.LatencyFunc {
	t.Helper()
	live := NewLiveLatency(LiveConfig{DelayMS: halfLine})
	t.Cleanup(live.Close)
	return live.Lat
}

// battery is the conformance battery, one subtest per entry.
var battery = []struct {
	name string
	run  func(*testing.T, maker)
}{
	{"LookupReachesOwner", runOwner},
	{"SelfLookupIsFree", runSelf},
	{"SwapInvariance", runSwap},
	{"LatencyNonNegative", runNonNegative},
	{"ChurnPhase", runChurn},
	{"ChurnPhaseCrashStop", runChurnCrash},
}

// Run exercises the full conformance battery against build, once per
// backend: "sim" evaluates latencies through the oracle function, "live"
// measures them with real message exchanges over the loopback transport.
// The battery itself — every predicate, every audit — is shared verbatim.
func Run(t *testing.T, build Builder) {
	t.Helper()
	backends := []struct {
		name string
		lat  latSource
	}{
		{"sim", simLat},
		{"live", liveLat},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			for _, c := range battery {
				t.Run(c.name, func(t *testing.T) { c.run(t, makerOf(t, build, be.lat(t))) })
			}
		})
	}
}

// Fuzz is the body of every DHT's FuzzOwnerAndLookup. It builds a small DHT
// from the fuzz inputs and checks through the online auditor — so the
// predicates match the audited experiment runs — that routing from src
// ends at the key's owner within hopBound(n) hops and that the substrate
// stays well-formed; that PROP-G host swaps change none of it; and that it
// all holds again after one other slot crash-stops and Repair runs.
func Fuzz(f *testing.F, build Builder, hopBound func(n int) int) {
	f.Add(uint64(1), uint32(12345), uint8(3), uint8(16))
	f.Add(uint64(99), uint32(0xFFFF0000), uint8(0), uint8(2))
	f.Add(uint64(7), uint32(0), uint8(200), uint8(29))
	f.Fuzz(func(t *testing.T, seed uint64, key uint32, srcRaw, sizeRaw uint8) {
		n := 2 + int(sizeRaw%30)
		d := makerOf(t, build, lineLat)(n, seed)
		o := d.Overlay()
		src := int(srcRaw) % n

		a := audit.New(1, 16)
		a.Register(
			audit.OverlayBijection(o),
			audit.OverlayConnected(o),
			audit.Check("dht-wellformed", d.CheckInvariants),
			audit.LookupTermination("dht-lookup", d.Owner,
				func(s int, k uint32) (int, int, error) {
					res, err := d.Lookup(s, k)
					return res.Owner, res.Hops, err
				},
				[]int{src}, []uint32{key, key ^ 0xA5A5A5A5}, hopBound(n)),
		)
		a.CheckNow()
		if err := a.Err(); err != nil {
			t.Fatal(err)
		}

		// PROP-G activity must not disturb ownership or routing.
		r := rng.New(seed ^ 0xbeef)
		for i := 0; i < 8; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				if err := o.SwapHosts(u, v); err != nil {
					t.Fatal(err)
				}
			}
			a.Observe(audit.Record{Kind: audit.KindExchange, A: u, B: v})
		}
		// Nor may a crash-stop of another slot, once repaired.
		if n > 2 {
			victim := (src + 1 + r.Intn(n-1)) % n
			if err := d.Crash(victim); err != nil {
				t.Fatalf("crash(%d): %v", victim, err)
			}
			if repaired, err := d.Repair(r); err != nil || repaired != 1 {
				t.Fatalf("repair after crash(%d): repaired %d, %v", victim, repaired, err)
			}
			a.CheckNow()
		}
		if err := a.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

func runOwner(t *testing.T, mk maker) {
	d := mk(128, 1)
	r := rng.New(2)
	for i := 0; i < 300; i++ {
		key := uint32(r.Uint64())
		src := r.Intn(128)
		res, err := d.Lookup(src, key)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if res.Owner != d.Owner(key) {
			t.Fatalf("lookup terminated at %d, owner is %d", res.Owner, d.Owner(key))
		}
	}
}

func runSelf(t *testing.T, mk maker) {
	d := mk(64, 3)
	r := rng.New(4)
	checked := 0
	for i := 0; i < 2000 && checked < 20; i++ {
		key := uint32(r.Uint64())
		src := d.Owner(key)
		res, err := d.Lookup(src, key)
		if err != nil {
			t.Fatalf("self lookup: %v", err)
		}
		if res != (overlay.LookupResult{Owner: src}) {
			t.Fatalf("self lookup not free: %+v (src %d)", res, src)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no self lookups exercised")
	}
}

func runSwap(t *testing.T, mk maker) {
	d := mk(128, 7)
	r := rng.New(8)
	// Record owners for a fixed key set.
	keys := make([]uint32, 100)
	owners := make([]int, len(keys))
	for i := range keys {
		keys[i] = uint32(r.Uint64())
		owners[i] = d.Owner(keys[i])
	}
	// PROP-G activity: random host swaps.
	o := d.Overlay()
	for i := 0; i < 80; i++ {
		u, v := r.Intn(128), r.Intn(128)
		if u != v {
			if err := o.SwapHosts(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Ownership is slot-attached, so it must be untouched; lookups must
	// still terminate there.
	for i, key := range keys {
		if got := d.Owner(key); got != owners[i] {
			t.Fatalf("owner of key %d changed under host swaps: %d -> %d", key, owners[i], got)
		}
		res, err := d.Lookup(r.Intn(128), key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner != owners[i] {
			t.Fatalf("lookup diverged from owner after swaps")
		}
	}
}

// runChurn is the churn-phase conformance check: nodes join and leave
// mid-run, and after every membership change the substrate must still be
// well-formed, connected, a slot↔host bijection, and resolve lookups at
// the true owner within a generous hop bound. All evaluation is routed
// through the online auditor so churn tests and audited experiment runs
// exercise the identical predicates.
func runChurn(t *testing.T, mk maker) {
	d := mk(64, 11)
	o := d.Overlay()
	a := audit.New(1, 64)
	a.Register(audit.OverlayBijection(o), audit.OverlayConnected(o), audit.Check("dht-wellformed", d.CheckInvariants))

	r := rng.New(12)
	nextHost := 1_000_000 // far above the i*7 hosts makerOf assigns
	for op := 0; op < 40; op++ {
		if r.Bool(0.5) && o.NumAlive() > 8 {
			alive := o.AliveSlots()
			victim := alive[r.Intn(len(alive))]
			if err := d.Leave(victim, r); err != nil {
				t.Fatalf("op %d: leave(%d): %v", op, victim, err)
			}
			a.Observe(audit.Record{Kind: audit.KindLeave, A: victim})
		} else {
			slot, err := d.Join(nextHost, r)
			if err != nil {
				t.Fatalf("op %d: join(host %d): %v", op, nextHost, err)
			}
			a.Observe(audit.Record{Kind: audit.KindJoin, A: slot, B: nextHost})
			nextHost++
		}
		// Re-verify ownership and lookup termination from a random survivor.
		alive := o.AliveSlots()
		src := alive[r.Intn(len(alive))]
		key := uint32(r.Uint64())
		want := d.Owner(key)
		res, err := d.Lookup(src, key)
		if err != nil {
			a.Fail("churn-lookup", err)
		} else if res.Owner != want {
			a.Fail("churn-lookup", fmt.Errorf("lookup(%d, %#x) reached %d, owner is %d", src, key, res.Owner, want))
		} else if bound := o.NumAlive() + 64; res.Hops > bound {
			a.Fail("churn-lookup", fmt.Errorf("lookup(%d, %#x) took %d hops, bound %d", src, key, res.Hops, bound))
		}
		a.Observe(audit.Record{Kind: audit.KindLookup, A: src, B: res.Owner, Aux: []int{res.Hops, want}})
	}
	if err := a.Err(); err != nil {
		t.Fatalf("churn phase failed (%s): %v", a.Summary(), err)
	}
	if a.Events() == 0 || a.Checks() == 0 {
		t.Fatalf("churn phase audited nothing: %s", a.Summary())
	}
}

// runChurnCrash is the crash-stop counterpart of runChurn: nodes die
// abruptly — stale references and all — and the substrate's Repair round
// must restore well-formedness, connectivity, and owner-correct
// lookups. The slot↔host bijection is audited during the corpse window too
// (CrashSlot must release hosts immediately); the stronger predicates are
// only demanded after each repair round, matching real failure-recovery
// semantics.
func runChurnCrash(t *testing.T, mk maker) {
	d := mk(64, 21)
	o := d.Overlay()

	// Checked on every membership event, including mid-corpse-window.
	always := audit.New(1, 64)
	always.Register(audit.OverlayBijection(o))
	// Checked after every repair round.
	postRepair := audit.New(1, 64)
	postRepair.Register(audit.OverlayBijection(o), audit.OverlayConnected(o), audit.Check("dht-wellformed", d.CheckInvariants))

	r := rng.New(22)
	nextHost := 2_000_000 // disjoint from makerOf's and runChurn's hosts
	totalCrashed := 0
	for round := 0; round < 12; round++ {
		want := 1 + r.Intn(3)
		crashed := 0
		for i := 0; i < want && o.NumAlive() > 8; i++ {
			alive := o.AliveSlots()
			victim := alive[r.Intn(len(alive))]
			if err := d.Crash(victim); err != nil {
				t.Fatalf("round %d: crash(%d): %v", round, victim, err)
			}
			crashed++
			always.Observe(audit.Record{Kind: audit.KindLeave, A: victim})
		}
		totalCrashed += crashed

		repaired, err := d.Repair(r)
		if err != nil {
			t.Fatalf("round %d: repair: %v", round, err)
		}
		if repaired < crashed {
			t.Fatalf("round %d: crashed %d nodes, repair handled %d", round, crashed, repaired)
		}
		postRepair.CheckNow()

		// A newcomer keeps the population healthy across rounds.
		slot, err := d.Join(nextHost, r)
		if err != nil {
			t.Fatalf("round %d: join(host %d): %v", round, nextHost, err)
		}
		always.Observe(audit.Record{Kind: audit.KindJoin, A: slot, B: nextHost})
		nextHost++

		// Post-repair lookups must resolve at the true owner again.
		alive := o.AliveSlots()
		for i := 0; i < 4; i++ {
			src := alive[r.Intn(len(alive))]
			key := uint32(r.Uint64())
			wantOwner := d.Owner(key)
			res, err := d.Lookup(src, key)
			if err != nil {
				postRepair.Fail("crash-lookup", err)
			} else if res.Owner != wantOwner {
				postRepair.Fail("crash-lookup",
					fmt.Errorf("lookup(%d, %#x) reached %d, owner is %d", src, key, res.Owner, wantOwner))
			} else if bound := o.NumAlive() + 64; res.Hops > bound {
				postRepair.Fail("crash-lookup",
					fmt.Errorf("lookup(%d, %#x) took %d hops, bound %d", src, key, res.Hops, bound))
			}
			postRepair.Observe(audit.Record{Kind: audit.KindLookup, A: src, B: res.Owner, Aux: []int{res.Hops, wantOwner}})
		}
	}
	if totalCrashed == 0 {
		t.Fatal("crash phase crashed nothing")
	}
	if err := always.Err(); err != nil {
		t.Fatalf("corpse-window audit failed (%s): %v", always.Summary(), err)
	}
	if err := postRepair.Err(); err != nil {
		t.Fatalf("post-repair audit failed (%s): %v", postRepair.Summary(), err)
	}
	if postRepair.Checks() == 0 {
		t.Fatalf("crash phase audited nothing: %s", postRepair.Summary())
	}
}

func runNonNegative(t *testing.T, mk maker) {
	d := mk(64, 9)
	r := rng.New(10)
	for i := 0; i < 200; i++ {
		res, err := d.Lookup(r.Intn(64), uint32(r.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency < 0 || res.Hops < 0 {
			t.Fatalf("negative accounting: %+v", res)
		}
		if res.Hops == 0 && res.Latency != 0 {
			t.Fatalf("zero hops with latency %v", res.Latency)
		}
	}
}

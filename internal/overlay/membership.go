package overlay

import (
	"fmt"

	"repro/internal/rng"
)

// Membership is a substrate's own membership rule: how a host joins, how a
// slot leaves, and how the survivors recover from crash-stop deaths. PROP
// only ever swaps hosts between existing slots, so it runs unchanged over
// any implementation (Theorem 2, §3.2). chord.Ring, can.Space and
// gnutella.Net implement it, and every latency a join or a repair reads
// comes from the overlay's own LatencyFunc.
//
// Crash-stop is Crash → Evict → Repair (DESIGN.md §9): Crash kills a slot
// and leaves every reference to it stale, survivors drop stale references
// as they notice (EvictDeadNeighbors), and Repair completes the deaths.
type Membership interface {
	// Join attaches a new live slot on host and returns it; r draws the
	// substrate's random choices (identifier, join point, links).
	Join(host int, r *rng.Rand) (slot int, err error)
	// Leave removes the live slot gracefully and repairs around it at once.
	Leave(slot int, r *rng.Rand) error
	// Crash kills the live slot crash-stop, through CrashMember.
	Crash(slot int) error
	// Repair runs one failure-recovery round over every unpurged crashed
	// slot and reports how many it repaired.
	Repair(r *rng.Rand) (repaired int, err error)
}

// CrashMember is the crash every Membership shares: it refuses a dead slot
// and a crash that would leave fewer than two live slots, then CrashSlot
// kills u and leaves its references stale until the substrate's Repair.
func (o *Overlay) CrashMember(u int) error {
	if !o.Alive(u) {
		return fmt.Errorf("overlay: Crash(%d) on dead slot", u)
	}
	if o.NumAlive() <= 2 {
		return fmt.Errorf("overlay: Crash(%d) would leave fewer than 2 live slots", u)
	}
	return o.CrashSlot(u)
}

package chord

import "fmt"

// CheckInvariants verifies the ring's structural contract — the Chord-level
// predicate the online auditor (internal/audit) evaluates during audited
// runs. Chord's correctness argument splits its state in two: successor
// lists must be *exact* at all times (routing falls back on them), while
// finger tables may go stale between finger-repair rounds but must never
// reference a dead slot. Checked here:
//
//   - the sorted ring lists exactly the live slots, in strictly ascending
//     identifier order (identifiers are distinct);
//   - every successor list equals the next successorListLen live slots in
//     ring order;
//   - every finger table entry references a live slot.
//
// It returns the first violation found, or nil.
func (ring *Ring) CheckInvariants() error {
	n := len(ring.sorted)
	if n != ring.O.NumAlive() {
		return fmt.Errorf("chord: ring order lists %d slots, %d are live", n, ring.O.NumAlive())
	}
	for i, s := range ring.sorted {
		if !ring.O.Alive(s) {
			return fmt.Errorf("chord: ring order contains dead slot %d", s)
		}
		if i > 0 && ring.ID[ring.sorted[i-1]] >= ring.ID[s] {
			return fmt.Errorf("chord: ring order broken at index %d: id %d >= %d",
				i, ring.ID[ring.sorted[i-1]], ring.ID[s])
		}
	}
	for i, s := range ring.sorted {
		want := successorListLen
		if want > n-1 {
			want = n - 1
		}
		if got := len(ring.succ[s]); got != want {
			return fmt.Errorf("chord: slot %d successor list has %d entries, want %d", s, got, want)
		}
		for k, sc := range ring.succ[s] {
			if exp := ring.sorted[(i+k+1)%n]; sc != exp {
				return fmt.Errorf("chord: slot %d successor %d is %d, ring order says %d", s, k, sc, exp)
			}
		}
		for j, f := range ring.fingers[s] {
			if !ring.O.Alive(f) {
				return fmt.Errorf("chord: slot %d finger %d references dead slot %d", s, j, f)
			}
		}
	}
	return nil
}

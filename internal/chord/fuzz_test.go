package chord

import (
	"testing"

	"repro/internal/dhttest"
)

// FuzzIntervalPartition checks the ring-interval algebra nextHop depends
// on: for a != b, the half-open intervals (a,b] and (b,a] partition the
// identifier circle, and the open interval (a,b) is (a,b] minus {b}.
func FuzzIntervalPartition(f *testing.F) {
	f.Add(uint64(5), uint64(3), uint64(8))
	f.Add(uint64(1), uint64(250), uint64(10))
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, id, a, b uint64) {
		if a != b {
			in1 := inInterval(id, a, b)
			in2 := inInterval(id, b, a)
			if in1 == in2 {
				t.Fatalf("(%d,%d] and (%d,%d] do not partition at id=%d: %v/%v",
					a, b, b, a, id, in1, in2)
			}
		} else {
			// Degenerate interval is the full circle.
			if !inInterval(id, a, b) {
				t.Fatalf("full-circle interval excluded id=%d", id)
			}
		}
		// Open vs half-open.
		open := inIntervalOpen(id, a, b)
		if open && id == b {
			t.Fatalf("open interval (%d,%d) contains its endpoint %d", a, b, id)
		}
		if a != b && open != (inInterval(id, a, b) && id != b) {
			t.Fatalf("open/half-open mismatch at id=%d a=%d b=%d", id, a, b)
		}
	})
}

// FuzzOwnerAndLookup runs the dhttest fuzz body on rings; routing takes at
// most n + Bits hops (Ring.Lookup's bound).
func FuzzOwnerAndLookup(f *testing.F) {
	dhttest.Fuzz(f, builder(DefaultConfig()), func(n int) int { return n + Bits })
}

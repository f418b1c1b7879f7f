package can

import (
	"testing"

	"repro/internal/dhttest"
)

// FuzzOwnerAndLookup runs the dhttest fuzz body on plain CANs; greedy
// routing visits each zone at most once, so it takes at most n hops.
func FuzzOwnerAndLookup(f *testing.F) {
	dhttest.Fuzz(f, builder(false), func(n int) int { return n })
}

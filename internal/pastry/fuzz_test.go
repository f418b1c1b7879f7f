package pastry

import (
	"testing"

	"repro/internal/dhttest"
)

// FuzzOwnerAndLookup runs the dhttest fuzz body on meshes; prefix routing
// takes at most n + Digits hops.
func FuzzOwnerAndLookup(f *testing.F) {
	dhttest.Fuzz(f, builder(Config{}), func(n int) int { return n + Digits })
}

package kademlia

import (
	"testing"

	"repro/internal/dhttest"
)

// FuzzOwnerAndLookup runs the dhttest fuzz body on networks; greedy XOR
// routing takes at most Bits + 8 hops.
func FuzzOwnerAndLookup(f *testing.F) {
	dhttest.Fuzz(f, builder(Config{}), func(int) int { return Bits + 8 })
}

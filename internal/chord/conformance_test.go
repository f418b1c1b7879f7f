package chord

import (
	"testing"

	"repro/internal/dhttest"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// dhtAdapter is a Ring under dhttest.DHT; Membership, Owner and
// CheckInvariants are the Ring's own.
type dhtAdapter struct{ *Ring }

func (a dhtAdapter) Overlay() *overlay.Overlay { return a.O }
func (a dhtAdapter) Lookup(src int, key uint32) (overlay.LookupResult, error) {
	return a.Ring.Lookup(src, key)
}

// builder builds rings with cfg for the dhttest harness.
func builder(cfg Config) dhttest.Builder {
	return func(hosts []int, lat overlay.LatencyFunc, r *rng.Rand) (dhttest.DHT, error) {
		ring, err := Build(hosts, cfg, lat, r)
		return dhtAdapter{ring}, err
	}
}

func TestDHTConformance(t *testing.T) { dhttest.Run(t, builder(DefaultConfig())) }

func TestDHTConformancePNS(t *testing.T) {
	dhttest.Run(t, builder(Config{PNS: true}))
}

package kademlia

import (
	"testing"

	"repro/internal/dhttest"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// dhtAdapter is a Net under dhttest.DHT; Membership, Owner, Lookup and
// CheckInvariants are the Net's own.
type dhtAdapter struct{ *Net }

func (a dhtAdapter) Overlay() *overlay.Overlay { return a.O }

// builder builds networks with cfg for the dhttest harness.
func builder(cfg Config) dhttest.Builder {
	return func(hosts []int, lat overlay.LatencyFunc, r *rng.Rand) (dhttest.DHT, error) {
		net, err := Build(hosts, cfg, lat, r)
		return dhtAdapter{net}, err
	}
}

func TestDHTConformance(t *testing.T) { dhttest.Run(t, builder(Config{})) }

func TestDHTConformanceProximity(t *testing.T) {
	dhttest.Run(t, builder(Config{Proximity: true}))
}

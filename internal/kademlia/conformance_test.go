package kademlia

import (
	"testing"

	"repro/internal/dhttest"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// dhtAdapter is a Net under dhttest.DHT; Membership, Owner and
// CheckInvariants are the Net's own.
type dhtAdapter struct{ *Net }

func (a dhtAdapter) Overlay() *overlay.Overlay { return a.O }
func (a dhtAdapter) Lookup(src int, key uint32, proc overlay.ProcDelayFunc) (int, int, float64, error) {
	res, err := a.Net.Lookup(src, key, proc)
	return res.Owner, res.Hops, res.Latency, err
}

// builder builds networks with cfg for the dhttest harness.
func builder(cfg Config) dhttest.Builder {
	return func(hosts []int, lat overlay.LatencyFunc, r *rng.Rand) (dhttest.DHT, error) {
		net, err := Build(hosts, cfg, lat, r)
		return dhtAdapter{net}, err
	}
}

func TestDHTConformance(t *testing.T) { dhttest.Run(t, builder(DefaultConfig())) }

func TestDHTConformanceProximity(t *testing.T) {
	dhttest.Run(t, builder(Config{K: 8, Proximity: true}))
}

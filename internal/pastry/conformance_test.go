package pastry

import (
	"testing"

	"repro/internal/dhttest"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// dhtAdapter is a Mesh under dhttest.DHT; Membership, Owner, Lookup and
// CheckInvariants are the Mesh's own.
type dhtAdapter struct{ *Mesh }

func (a dhtAdapter) Overlay() *overlay.Overlay { return a.O }

// builder builds meshes with cfg for the dhttest harness.
func builder(cfg Config) dhttest.Builder {
	return func(hosts []int, lat overlay.LatencyFunc, r *rng.Rand) (dhttest.DHT, error) {
		m, err := Build(hosts, cfg, lat, r)
		return dhtAdapter{m}, err
	}
}

func TestDHTConformance(t *testing.T) { dhttest.Run(t, builder(Config{})) }

func TestDHTConformanceProximity(t *testing.T) {
	dhttest.Run(t, builder(Config{Proximity: true}))
}

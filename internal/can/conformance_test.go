package can

import (
	"testing"

	"repro/internal/dhttest"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// keyPoint deterministically maps a 32-bit key onto the unit torus: high
// halfword to x, low halfword to y.
func keyPoint(key uint32) Point {
	return Point{
		X: float64(key>>16) / 65536.0,
		Y: float64(key&0xFFFF) / 65536.0,
	}
}

// dhtAdapter is a Space under dhttest.DHT; Membership and CheckInvariants
// are the Space's own, keys map to points through keyPoint.
type dhtAdapter struct{ *Space }

func (a dhtAdapter) Overlay() *overlay.Overlay { return a.O }
func (a dhtAdapter) Owner(key uint32) int      { return a.ZoneOf(keyPoint(key)) }
func (a dhtAdapter) Lookup(src int, key uint32) (overlay.LookupResult, error) {
	return a.Route(src, keyPoint(key))
}

// builder builds CANs for the dhttest harness, with PIS over the first and
// last host as landmarks when pis is set.
func builder(pis bool) dhttest.Builder {
	return func(hosts []int, lat overlay.LatencyFunc, r *rng.Rand) (dhttest.DHT, error) {
		var cfg Config
		if pis {
			cfg.Landmarks = []int{hosts[0], hosts[len(hosts)-1]}
		}
		sp, err := Build(hosts, cfg, lat, r)
		return dhtAdapter{sp}, err
	}
}

func TestDHTConformance(t *testing.T) { dhttest.Run(t, builder(false)) }

func TestDHTConformancePIS(t *testing.T) { dhttest.Run(t, builder(true)) }

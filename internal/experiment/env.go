package experiment

import (
	"fmt"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/gnutella"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/rng"
)

// env bundles one trial's physical world: a generated transit-stub network,
// its latency oracle, and the trial RNG.
type env struct {
	net    *netsim.Network
	oracle *netsim.Oracle
	r      *rng.Rand
}

// newEnv generates the physical substrate for one trial.
func newEnv(preset netsim.Config, seed uint64) (*env, error) {
	r := rng.New(seed)
	net, err := netsim.Generate(preset, r)
	if err != nil {
		return nil, err
	}
	return &env{net: net, oracle: netsim.NewOracle(net), r: r}, nil
}

// pickHosts selects n distinct stub hosts uniformly at random; n is capped
// at the number of stub hosts ("PROP-G is still effective even when almost
// all physical nodes are chosen"). The rows of the picked hosts' anchors —
// the transit routers they hang off — are warmed in bulk: every overlay
// build and metric sample queries exactly these sources, so one Precompute
// here keeps every cold-row miss off the measurement path.
func (e *env) pickHosts(n int) []int {
	hosts := append([]int(nil), e.net.StubHosts...)
	e.r.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	if n > len(hosts) {
		n = len(hosts)
	}
	picked := hosts[:n]
	e.oracle.Precompute(picked)
	return picked
}

// buildGnutella constructs an n-peer unstructured overlay on this network.
func (e *env) buildGnutella(n int) (*overlay.Overlay, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiment: overlay size %d too small", n)
	}
	return gnutella.Build(e.pickHosts(n), gnutella.DefaultConfig(), e.oracle.Latency, e.r)
}

// buildChord constructs an n-node Chord ring, optionally with PNS fingers.
func (e *env) buildChord(n int, pns bool) (*chord.Ring, error) {
	cfg := chord.DefaultConfig()
	cfg.PNS = pns
	return chord.Build(e.pickHosts(n), cfg, e.oracle.Latency, e.r)
}

// buildCAN constructs an n-node CAN, optionally with PIS landmark binning.
// PIS uses three landmarks drawn from distinct transit domains.
func (e *env) buildCAN(n int, pis bool) (*can.Space, error) {
	cfg := can.Config{}
	if pis {
		cfg.Landmarks = e.pickLandmarks(3)
	}
	return can.Build(e.pickHosts(n), cfg, e.oracle.Latency, e.r)
}

// pickLandmarks returns k transit routers spread across domains.
func (e *env) pickLandmarks(k int) []int {
	var lms []int
	seen := map[int]bool{}
	for id, tier := range e.net.Tiers {
		if tier != netsim.TierTransit {
			continue
		}
		d := e.net.Domain[id]
		if !seen[d] {
			seen[d] = true
			lms = append(lms, id)
			if len(lms) == k {
				break
			}
		}
	}
	// Fewer domains than k: pad with any transit routers.
	for id, tier := range e.net.Tiers {
		if len(lms) == k {
			break
		}
		if tier == netsim.TierTransit && !contains(lms, id) {
			lms = append(lms, id)
		}
	}
	return lms
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// meanPhysLink returns the stretch denominator for this network.
func (e *env) meanPhysLink() float64 { return e.net.MeanLinkLatency() }

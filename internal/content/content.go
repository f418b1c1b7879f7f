// Package content models the file-sharing workload the paper's Gnutella
// discussion presumes: items with Zipf-skewed popularity, replicated across
// machines, retrieved by flooding search that any replica satisfies
// ("requests for files are flooded with a certain scope", §1).
//
// Items are placed on *hosts* — machines hold files — so the placement
// survives PROP-G position exchanges untouched; what an exchange changes is
// where in the overlay each machine sits, and therefore how far queries
// travel.
//
// Key type: Catalog (placement plus flooding retrieval). See DESIGN.md §1
// (content/replication model) and the "replication" extension in
// EXPERIMENTS.md.
package content

import (
	"fmt"
	"math"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// zipfS is the Zipf popularity exponent: queries target the item ranked k
// with probability ∝ k^-zipfS (measured Gnutella workloads are sub-1 Zipf).
const zipfS = 0.8

// Config describes a catalog.
type Config struct {
	// Items is the number of distinct items.
	Items int
	// Replicas is the number of machines holding each item.
	Replicas int
}

// DefaultConfig models a small file-sharing community: 500 items, 3
// replicas each.
func DefaultConfig() Config { return Config{Items: 500, Replicas: 3} }

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Items < 1:
		return fmt.Errorf("content: Items = %d, want >= 1", c.Items)
	case c.Replicas < 1:
		return fmt.Errorf("content: Replicas = %d, want >= 1", c.Replicas)
	}
	return nil
}

// Catalog is a placed set of items.
type Catalog struct {
	// holders[i] lists the hosts storing item i.
	holders [][]int
	// popCDF is the cumulative popularity distribution for query sampling.
	popCDF []float64
}

// Place distributes every item onto Replicas distinct machines of the
// overlay, chosen uniformly at random.
func Place(o *overlay.Overlay, cfg Config, r *rng.Rand) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hosts := o.Hosts()
	if len(hosts) < cfg.Replicas {
		return nil, fmt.Errorf("content: %d replicas but only %d machines", cfg.Replicas, len(hosts))
	}
	c := &Catalog{holders: make([][]int, cfg.Items)}
	for i := range c.holders {
		chosen := map[int]bool{}
		for len(chosen) < cfg.Replicas {
			chosen[hosts[r.Intn(len(hosts))]] = true
		}
		hs := make([]int, 0, cfg.Replicas)
		for h := range chosen {
			hs = append(hs, h)
		}
		c.holders[i] = hs
	}
	// Zipf CDF over ranks 1..Items.
	c.popCDF = make([]float64, cfg.Items)
	total := 0.0
	for k := 1; k <= cfg.Items; k++ {
		total += math.Pow(float64(k), -zipfS)
		c.popCDF[k-1] = total
	}
	for i := range c.popCDF {
		c.popCDF[i] /= total
	}
	return c, nil
}

// DrawItem samples an item by Zipf popularity.
func (c *Catalog) DrawItem(r *rng.Rand) int {
	x := r.Float64()
	lo, hi := 0, len(c.popCDF)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.popCDF[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SearchLatency returns the first-arrival flooding latency from the peer at
// slot src to the nearest live replica of item, in the overlay's *current*
// host→slot assignment. +Inf when no replica's machine is an overlay member.
func (c *Catalog) SearchLatency(o *overlay.Overlay, src, item int, proc overlay.ProcDelayFunc) float64 {
	if item < 0 || item >= len(c.holders) {
		return math.Inf(1)
	}
	var dsts []int
	for _, h := range c.holders[item] {
		if s := o.SlotOfHost(h); s >= 0 {
			dsts = append(dsts, s)
		}
	}
	return o.FloodLatencyAny(src, dsts, proc)
}

// MeanSearchLatency samples queries uniform-source/Zipf-item queries and
// returns the mean first-replica latency plus the count of failed searches.
func (c *Catalog) MeanSearchLatency(o *overlay.Overlay, queries int, proc overlay.ProcDelayFunc, r *rng.Rand) (float64, int) {
	slots := o.AliveSlots()
	if len(slots) == 0 || queries < 1 {
		return 0, 0
	}
	sum, n, failed := 0.0, 0, 0
	for q := 0; q < queries; q++ {
		src := slots[r.Intn(len(slots))]
		d := c.SearchLatency(o, src, c.DrawItem(r), proc)
		if math.IsInf(d, 1) {
			failed++
			continue
		}
		sum += d
		n++
	}
	if n == 0 {
		return math.Inf(1), failed
	}
	return sum / float64(n), failed
}

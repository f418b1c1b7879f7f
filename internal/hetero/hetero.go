// Package hetero models node heterogeneity for the paper's Fig. 7
// experiment: a bimodal processing-delay distribution with a minority of
// fast nodes and a majority of slow ones ("the overall setting is similar
// to that in [Dabek et al.]").
//
// Speed is a property of the physical machine — the *host* — not of the
// overlay position. That distinction is load-bearing: PROP-G exchanges move
// hosts between overlay slots, so a fast machine can migrate out of its
// well-connected position, while PROP-O preserves each machine's degree.
// Fig. 7's crossover between the policies is exactly this effect.
//
// The paper observes that in real systems powerful peers both serve more
// lookups and hold more connections; AssignByDegree therefore marks the
// machines currently backing the highest-degree slots as fast (matching the
// preferential-attachment overlays, where early joiners are hubs).
//
// Key types: Config and Model (host → processing delay). See DESIGN.md §1
// and the Fig. 7 row of §2.
package hetero

import (
	"fmt"
	"sort"

	"repro/internal/overlay"
)

// Config describes a bimodal processing-delay population.
type Config struct {
	// FastDelayMS is the processing delay of fast machines (paper: 1 ms).
	FastDelayMS float64
	// SlowDelayMS is the processing delay of slow machines (reconstructed:
	// 100 ms; the OCR lost the digit — see DESIGN.md §4).
	SlowDelayMS float64
	// FastFraction is the fraction of machines that are fast
	// (reconstructed: 0.20).
	FastFraction float64
}

// DefaultConfig returns the Fig. 7 setting.
func DefaultConfig() Config {
	return Config{FastDelayMS: 1, SlowDelayMS: 100, FastFraction: 0.20}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.FastDelayMS < 0 || c.SlowDelayMS < 0:
		return fmt.Errorf("hetero: negative delay (%v/%v)", c.FastDelayMS, c.SlowDelayMS)
	case c.FastDelayMS > c.SlowDelayMS:
		return fmt.Errorf("hetero: fast delay %v exceeds slow delay %v", c.FastDelayMS, c.SlowDelayMS)
	case c.FastFraction < 0 || c.FastFraction > 1:
		return fmt.Errorf("hetero: FastFraction %v out of [0,1]", c.FastFraction)
	}
	return nil
}

// Model assigns processing delays to the machines of one overlay.
type Model struct {
	cfg       Config
	o         *overlay.Overlay
	fastHosts map[int]bool
}

// fastCount returns ceil(frac·n).
func fastCount(frac float64, n int) int {
	k := int(frac*float64(n) + 0.999999)
	if k > n {
		k = n
	}
	return k
}

// AssignByDegree marks the machines backing the ceil(FastFraction·n)
// highest-degree slots of o as fast — the "powerful nodes own more
// connections" coupling Fig. 7 leans on. The assignment is by host, so
// later host swaps (PROP-G) carry the speed with the machine.
func AssignByDegree(o *overlay.Overlay, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slots := o.AliveSlots()
	sort.Slice(slots, func(i, j int) bool {
		di, dj := o.Degree(slots[i]), o.Degree(slots[j])
		if di != dj {
			return di > dj
		}
		return slots[i] < slots[j]
	})
	m := &Model{cfg: cfg, o: o, fastHosts: make(map[int]bool)}
	for _, s := range slots[:fastCount(cfg.FastFraction, len(slots))] {
		m.fastHosts[o.HostOf(s)] = true
	}
	return m, nil
}

// IsFastHost reports whether the machine host is fast.
func (m *Model) IsFastHost(host int) bool { return m.fastHosts[host] }

// IsFastSlot reports whether the machine currently backing slot is fast.
func (m *Model) IsFastSlot(slot int) bool { return m.fastHosts[m.o.HostOf(slot)] }

// Delay returns the processing delay of the machine currently backing slot,
// in milliseconds; it satisfies overlay.ProcDelayFunc.
func (m *Model) Delay(slot int) float64 {
	if m.IsFastSlot(slot) {
		return m.cfg.FastDelayMS
	}
	return m.cfg.SlowDelayMS
}

// FastHosts returns the fast machines in ascending order.
func (m *Model) FastHosts() []int {
	out := make([]int, 0, len(m.fastHosts))
	for h := range m.fastHosts {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}

// FastSlots returns the slots currently backed by fast machines, ascending.
func (m *Model) FastSlots() []int {
	var out []int
	for _, s := range m.o.AliveSlots() {
		if m.IsFastSlot(s) {
			out = append(out, s)
		}
	}
	return out
}

// SlowSlots returns the live slots backed by slow machines, ascending.
func (m *Model) SlowSlots() []int {
	var out []int
	for _, s := range m.o.AliveSlots() {
		if !m.IsFastSlot(s) {
			out = append(out, s)
		}
	}
	return out
}

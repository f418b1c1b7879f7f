// Package churn drives the dynamic-membership experiments (§3.2's
// departure handling, §4.3's "even when churn occurs, the frequency of
// probing will reduce quickly after a short period of time").
//
// A Runner schedules Poisson join and leave events inside a churn window on
// the discrete-event engine; the experiment harness supplies the actual
// join/leave actions (overlay rewiring plus protocol registration) as
// closures, keeping this package substrate-agnostic. Departures here are
// graceful; crash-stop deaths follow internal/faults' one crash schedule,
// faults.CrashAt.
//
// Key types: Config (the churn window and Poisson rates) and Runner. See
// DESIGN.md §2 ("churn") for the experiment this drives.
package churn

import (
	"fmt"
	"math"

	"repro/internal/event"
	"repro/internal/rng"
)

// Config describes one churn window.
type Config struct {
	// StartMS and StopMS bound the churn window in simulated time.
	StartMS, StopMS float64
	// MeanJoinIntervalMS is the mean of the exponential inter-arrival time
	// of joins (0 disables joins).
	MeanJoinIntervalMS float64
	// MeanLeaveIntervalMS is the mean inter-departure time of graceful
	// leaves (0 disables leaves).
	MeanLeaveIntervalMS float64
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	for _, v := range [...]float64{c.StartMS, c.StopMS, c.MeanJoinIntervalMS, c.MeanLeaveIntervalMS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("churn: window [%v,%v) or a mean interval is not finite", c.StartMS, c.StopMS)
		}
	}
	switch {
	case c.StopMS < c.StartMS:
		return fmt.Errorf("churn: window [%v,%v) inverted", c.StartMS, c.StopMS)
	case c.MeanJoinIntervalMS < 0 || c.MeanLeaveIntervalMS < 0:
		return fmt.Errorf("churn: negative mean interval")
	}
	return nil
}

// kind is the churn event family of one Poisson process.
type kind int

const (
	kindJoin kind = iota
	kindLeave
)

// Runner schedules churn events. OnJoin and OnLeave run inside the engine;
// either may be nil. Errors returned by the callbacks are counted, not
// fatal — a failed leave on an already-empty overlay is an experimental
// condition, not a bug.
type Runner struct {
	// OnJoin performs one node arrival.
	OnJoin func(e *event.Engine) error
	// OnLeave performs one graceful node departure.
	OnLeave func(e *event.Engine) error
	// Joins, Leaves, Errors count what actually happened.
	Joins, Leaves, Errors int

	cfg Config
	r   *rng.Rand
}

// NewRunner builds a churn runner.
func NewRunner(cfg Config, r *rng.Rand) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg, r: r}, nil
}

// Start arms the first event of each enabled Poisson process. The order —
// joins, then leaves — fixes the RNG draw order.
func (ru *Runner) Start(e *event.Engine) {
	if ru.OnJoin != nil && ru.cfg.MeanJoinIntervalMS > 0 {
		ru.scheduleNext(e, kindJoin, ru.cfg.StartMS)
	}
	if ru.OnLeave != nil && ru.cfg.MeanLeaveIntervalMS > 0 {
		ru.scheduleNext(e, kindLeave, ru.cfg.StartMS)
	}
}

// scheduleNext arms the next event of one kind after base time.
func (ru *Runner) scheduleNext(e *event.Engine, k kind, baseMS float64) {
	mean := ru.cfg.MeanJoinIntervalMS
	if k == kindLeave {
		mean = ru.cfg.MeanLeaveIntervalMS
	}
	at := baseMS + ru.r.ExpFloat64()*mean
	if at >= ru.cfg.StopMS {
		return
	}
	if at < float64(e.Now()) {
		at = float64(e.Now())
	}
	e.At(event.Time(at), func(en *event.Engine) {
		var err error
		switch k {
		case kindJoin:
			err = ru.OnJoin(en)
			if err == nil {
				ru.Joins++
			}
		case kindLeave:
			err = ru.OnLeave(en)
			if err == nil {
				ru.Leaves++
			}
		}
		if err != nil {
			ru.Errors++
		}
		ru.scheduleNext(en, k, float64(en.Now()))
	})
}

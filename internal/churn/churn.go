// Package churn drives the dynamic-membership experiments (§3.2's
// departure handling, §4.3's "even when churn occurs, the frequency of
// probing will reduce quickly after a short period of time").
//
// A Runner schedules Poisson join and leave events inside a churn window on
// the discrete-event engine; the experiment harness supplies the actual
// join/leave actions (overlay rewiring plus protocol registration) as
// closures, keeping this package substrate-agnostic.
//
// Key types: Config (the churn window and Poisson rates) and Runner. See
// DESIGN.md §2 ("churn") for the experiment this drives.
package churn

import (
	"fmt"

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
	// MeanCrashIntervalMS is the mean inter-failure time of crash-stop
	// deaths — departures that skip the deregistration a graceful leave
	// performs (0 disables crashes, the historical behavior).
	MeanCrashIntervalMS float64
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.StopMS < c.StartMS:
		return fmt.Errorf("churn: window [%v,%v) inverted", c.StartMS, c.StopMS)
	case c.MeanJoinIntervalMS < 0 || c.MeanLeaveIntervalMS < 0 || c.MeanCrashIntervalMS < 0:
		return fmt.Errorf("churn: negative mean interval")
	}
	return nil
}

// kind is the churn event family of one Poisson process.
type kind int

const (
	kindJoin kind = iota
	kindLeave
	kindCrash
)

// Runner schedules churn events. OnJoin, OnLeave, and OnCrash run inside the
// engine; any may be nil. Errors returned by the callbacks are counted, not
// fatal — a failed leave on an already-empty overlay is an experimental
// condition, not a bug.
type Runner struct {
	// OnJoin performs one node arrival.
	OnJoin func(e *event.Engine) error
	// OnLeave performs one graceful node departure.
	OnLeave func(e *event.Engine) error
	// OnCrash performs one crash-stop node death: the victim vanishes
	// without deregistering, leaving survivors with stale references.
	OnCrash func(e *event.Engine) error
	// Joins, Leaves, Crashes, Errors count what actually happened.
	Joins, Leaves, Crashes, Errors int

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
// joins, then leaves, then crashes — fixes the RNG draw order; crash-free
// configs draw exactly as they did before crashes existed.
func (ru *Runner) Start(e *event.Engine) {
	if ru.OnJoin != nil && ru.cfg.MeanJoinIntervalMS > 0 {
		ru.scheduleNext(e, kindJoin, ru.cfg.StartMS)
	}
	if ru.OnLeave != nil && ru.cfg.MeanLeaveIntervalMS > 0 {
		ru.scheduleNext(e, kindLeave, ru.cfg.StartMS)
	}
	if ru.OnCrash != nil && ru.cfg.MeanCrashIntervalMS > 0 {
		ru.scheduleNext(e, kindCrash, ru.cfg.StartMS)
	}
}

// scheduleNext arms the next event of one kind after base time.
func (ru *Runner) scheduleNext(e *event.Engine, k kind, baseMS float64) {
	var mean float64
	switch k {
	case kindJoin:
		mean = ru.cfg.MeanJoinIntervalMS
	case kindLeave:
		mean = ru.cfg.MeanLeaveIntervalMS
	case kindCrash:
		mean = ru.cfg.MeanCrashIntervalMS
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
		case kindCrash:
			err = ru.OnCrash(en)
			if err == nil {
				ru.Crashes++
			}
		}
		if err != nil {
			ru.Errors++
		}
		ru.scheduleNext(en, k, float64(en.Now()))
	})
}

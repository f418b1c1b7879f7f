package churn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/rng"
)

func TestValidate(t *testing.T) {
	good := Config{StartMS: 0, StopMS: 1000, MeanJoinIntervalMS: 10, MeanLeaveIntervalMS: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{StartMS: 100, StopMS: 50},
		{StartMS: 0, StopMS: 100, MeanJoinIntervalMS: -1},
		{StartMS: math.NaN(), StopMS: 100},
		{StartMS: 0, StopMS: math.NaN()},
		{StartMS: 0, StopMS: math.Inf(1)},
		{StartMS: 0, StopMS: 100, MeanLeaveIntervalMS: math.NaN()},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := NewRunner(cfg, rng.New(1)); err == nil {
			t.Errorf("NewRunner accepted bad config %d", i)
		}
	}
}

func TestJoinLeaveCountsAndWindow(t *testing.T) {
	cfg := Config{StartMS: 1000, StopMS: 61000, MeanJoinIntervalMS: 500, MeanLeaveIntervalMS: 1000}
	ru, err := NewRunner(cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	var joinTimes, leaveTimes []float64
	ru.OnJoin = func(e *event.Engine) error {
		joinTimes = append(joinTimes, float64(e.Now()))
		return nil
	}
	ru.OnLeave = func(e *event.Engine) error {
		leaveTimes = append(leaveTimes, float64(e.Now()))
		return nil
	}
	e := event.New()
	ru.Start(e)
	e.RunUntil(100000)
	if ru.Joins != len(joinTimes) || ru.Leaves != len(leaveTimes) {
		t.Fatalf("counts mismatch: %d/%d vs %d/%d", ru.Joins, ru.Leaves, len(joinTimes), len(leaveTimes))
	}
	// Expected ~120 joins (60s window / 0.5s) and ~60 leaves.
	if ru.Joins < 80 || ru.Joins > 170 {
		t.Fatalf("joins = %d, expected ~120", ru.Joins)
	}
	if ru.Leaves < 35 || ru.Leaves > 95 {
		t.Fatalf("leaves = %d, expected ~60", ru.Leaves)
	}
	for _, ts := range append(joinTimes, leaveTimes...) {
		if ts < cfg.StartMS || ts >= cfg.StopMS {
			t.Fatalf("event at %v outside window [%v,%v)", ts, cfg.StartMS, cfg.StopMS)
		}
	}
	// Inter-arrival mean should be near the configured mean.
	if len(joinTimes) > 10 {
		var gaps []float64
		for i := 1; i < len(joinTimes); i++ {
			gaps = append(gaps, joinTimes[i]-joinTimes[i-1])
		}
		mean := 0.0
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		if math.Abs(mean-500) > 200 {
			t.Fatalf("join inter-arrival mean %v far from 500", mean)
		}
	}
}

func TestErrorsCounted(t *testing.T) {
	cfg := Config{StartMS: 0, StopMS: 10000, MeanJoinIntervalMS: 100}
	ru, err := NewRunner(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ru.OnJoin = func(*event.Engine) error { return errors.New("boom") }
	e := event.New()
	ru.Start(e)
	e.RunUntil(20000)
	if ru.Errors == 0 {
		t.Fatal("errors not counted")
	}
	if ru.Joins != 0 {
		t.Fatal("failed joins counted as successes")
	}
}

func TestDisabledKinds(t *testing.T) {
	cfg := Config{StartMS: 0, StopMS: 10000, MeanJoinIntervalMS: 0, MeanLeaveIntervalMS: 100}
	ru, err := NewRunner(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	ru.OnJoin = func(*event.Engine) error { joins++; return nil }
	ru.OnLeave = func(*event.Engine) error { return nil }
	e := event.New()
	ru.Start(e)
	e.RunUntil(20000)
	if joins != 0 {
		t.Fatal("disabled joins fired")
	}
	if ru.Leaves == 0 {
		t.Fatal("leaves did not fire")
	}
	// Nil callbacks are fine.
	ru2, _ := NewRunner(Config{StartMS: 0, StopMS: 100, MeanJoinIntervalMS: 1}, rng.New(1))
	e2 := event.New()
	ru2.Start(e2)
	e2.RunUntil(200)
}

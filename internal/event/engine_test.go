package event

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func(*Engine) { order = append(order, 3) })
	e.At(10, func(*Engine) { order = append(order, 1) })
	e.At(20, func(*Engine) { order = append(order, 2) })
	e.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(*Engine) { order = append(order, i) })
	}
	e.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestAfterUsesCurrentClock(t *testing.T) {
	e := New()
	var fired Time
	e.At(100, func(en *Engine) {
		en.After(50, func(en2 *Engine) { fired = en2.Now() })
	})
	e.Run(0)
	if fired != 150 {
		t.Fatalf("nested After fired at %v, want 150", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func(*Engine) {})
	e.Run(0)
	for _, at := range []Time{50, Time(math.NaN())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduling at %v with now %v did not panic", at, e.Now())
				}
			}()
			e.At(at, func(*Engine) {})
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("RunUntil(NaN) did not panic")
		}
	}()
	e.At(200, func(*Engine) {})
	e.RunUntil(Time(math.NaN()))
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	New().At(1, nil)
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	tok := e.At(10, func(*Engine) { fired = true })
	tok.Cancel()
	tok.Cancel() // idempotent
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Steps() != 0 {
		t.Fatalf("Steps = %d, want 0", e.Steps())
	}
	var nilTok *Token
	nilTok.Cancel() // must not panic
}

func TestCancelReportsPendingPrevention(t *testing.T) {
	e := New()
	tok := e.At(10, func(*Engine) {})
	if !tok.Pending() {
		t.Fatal("fresh token not Pending")
	}
	if !tok.Cancel() {
		t.Fatal("first Cancel of a pending event reported false")
	}
	if tok.Cancel() {
		t.Fatal("second Cancel reported true")
	}
	if tok.Pending() {
		t.Fatal("cancelled token still Pending")
	}

	// After execution, Cancel must report false: the stale-timer case.
	tok2 := e.At(20, func(*Engine) {})
	e.Run(0)
	if tok2.Pending() {
		t.Fatal("executed token still Pending")
	}
	if tok2.Cancel() {
		t.Fatal("Cancel after execution reported true")
	}

	var nilTok *Token
	if nilTok.Cancel() || nilTok.Pending() {
		t.Fatal("nil token reported live state")
	}
}

func TestStaleTimerFire(t *testing.T) {
	// Model a retransmit timer whose response arrives in the same tick: the
	// response handler runs first (FIFO among equal times), tries to cancel
	// the timer, and learns whether it was in time. If it was not — the timer
	// already fired — the timer handler must be able to detect staleness via
	// an epoch captured at scheduling time.
	e := New()
	epoch := 0
	staleFires, liveFires := 0, 0
	schedule := func(at Time) {
		myEpoch := epoch
		e.At(at, func(*Engine) {
			if myEpoch != epoch {
				staleFires++
				return
			}
			liveFires++
		})
	}
	schedule(10)
	// Response arrives at t=5: epoch bump invalidates the timer logically,
	// but we "forget" to cancel — the guard must absorb the fire. The next
	// incarnation is scheduled under the new epoch and fires live.
	e.At(5, func(*Engine) {
		epoch++
		schedule(20)
	})
	e.Run(0)
	if staleFires != 1 || liveFires != 1 {
		t.Fatalf("staleFires=%d liveFires=%d, want 1 and 1", staleFires, liveFires)
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var order []int
	t1 := e.At(10, func(*Engine) { order = append(order, 1) })
	e.At(10, func(*Engine) { order = append(order, 2) })
	e.At(20, func(*Engine) { order = append(order, 3) })
	t1.Cancel()
	e.Run(0)
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("order = %v, want [2 3]", order)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20, 25} {
		at := at
		e.At(at, func(en *Engine) { fired = append(fired, en.Now()) })
	}
	e.RunUntil(15)
	if len(fired) != 3 {
		t.Fatalf("fired = %v, want events at 5,10,15", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("Now = %v, want 15", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if len(fired) != 5 {
		t.Fatalf("fired = %v after final RunUntil", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now advanced to %v, want deadline 100", e.Now())
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	e := New()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("Now = %v, want 500", e.Now())
	}
}

func TestRunMaxSteps(t *testing.T) {
	e := New()
	count := 0
	var reschedule Handler
	reschedule = func(en *Engine) {
		count++
		en.After(1, reschedule)
	}
	e.After(1, reschedule)
	n := e.Run(100)
	if n != 100 || count != 100 {
		t.Fatalf("Run(100) executed %d events, handler ran %d times", n, count)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the rescheduled event", e.Pending())
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestRandomScheduleOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := New()
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			e.At(at, func(en *Engine) { fired = append(fired, en.Now()) })
		}
		e.Run(0)
		if len(fired) != len(times) {
			return false
		}
		sorted := make([]Time, len(fired))
		copy(sorted, fired)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicPattern(t *testing.T) {
	// The pattern the PROP timer uses: an event that reschedules itself
	// with a varying period.
	e := New()
	period := Time(10)
	var fireTimes []Time
	var tick Handler
	tick = func(en *Engine) {
		fireTimes = append(fireTimes, en.Now())
		period *= 2
		en.After(period, tick)
	}
	e.After(period, tick)
	e.RunUntil(150)
	want := []Time{10, 30, 70, 150}
	if len(fireTimes) != len(want) {
		t.Fatalf("fireTimes = %v, want %v", fireTimes, want)
	}
	for i := range want {
		if fireTimes[i] != want[i] {
			t.Fatalf("fireTimes = %v, want %v", fireTimes, want)
		}
	}
}

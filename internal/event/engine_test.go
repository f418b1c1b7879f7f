package event

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// drain executes events until the queue is empty.
func drain(e *Engine) {
	for e.Step() {
	}
}

func TestOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func(*Engine) { order = append(order, 3) })
	e.At(10, func(*Engine) { order = append(order, 1) })
	e.At(20, func(*Engine) { order = append(order, 2) })
	drain(e)
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
	drain(e)
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
	drain(e)
	if fired != 150 {
		t.Fatalf("nested After fired at %v, want 150", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func(*Engine) {})
	drain(e)
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
	w := e.Timer(func() { fired = true })
	w.Reset(10)
	w.Stop()
	w.Stop()       // idempotent
	e.RunUntil(20) // the stopped item left the queue: nothing is due
	if fired {
		t.Fatal("stopped timer fired")
	}
	if e.Steps() != 0 || len(e.queue) != 0 {
		t.Fatalf("Steps = %d with %d queued, want 0 and 0", e.Steps(), len(e.queue))
	}
}

func TestCancelReportsPendingPrevention(t *testing.T) {
	e := New()
	w := e.Timer(func() {})
	if w.Stop() {
		t.Fatal("Stop of a timer never armed reported true")
	}
	w.Reset(10)
	if !w.Stop() {
		t.Fatal("first Stop of an armed timer reported false")
	}
	if w.Stop() {
		t.Fatal("second Stop reported true")
	}

	// After the firing, Stop must report false: the stale-timer case.
	w.Reset(20)
	drain(e)
	if w.Stop() {
		t.Fatal("Stop after the firing reported true")
	}
}

func TestStaleTimerFire(t *testing.T) {
	// Model a retransmit timer whose response arrives in the same tick:
	// equal-time events run in scheduling order, so a response scheduled
	// before the timer was armed runs first and stops it in time, and one
	// scheduled after finds it fired: Stop reports the stale-timer race.
	e := New()
	fires := 0
	w := e.Timer(func() { fires++ })
	var early, late bool
	e.At(10, func(*Engine) { early = w.Stop() })
	w.Reset(10)
	drain(e)
	w.Reset(10)
	e.At(20, func(*Engine) { late = w.Stop() })
	drain(e)
	if !early || late || fires != 1 {
		t.Fatalf("early Stop %v, late Stop %v, %d fires; want true, false, 1", early, late, fires)
	}

	// A one-shot cannot be cancelled, so a handler that may outlive its
	// purpose detects staleness via an epoch captured at scheduling time.
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
	schedule(40)
	// Response arrives at t=35: the epoch bump invalidates the first
	// one-shot, and the next incarnation is scheduled under the new epoch.
	e.At(35, func(*Engine) {
		epoch++
		schedule(50)
	})
	drain(e)
	if staleFires != 1 || liveFires != 1 {
		t.Fatalf("staleFires=%d liveFires=%d, want 1 and 1", staleFires, liveFires)
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var order []int
	t1 := e.Timer(func() { order = append(order, 1) })
	t4 := e.Timer(func() { order = append(order, 4) })
	t1.Reset(10)
	t4.Reset(5)
	e.At(10, func(*Engine) { order = append(order, 2) })
	e.At(20, func(*Engine) { order = append(order, 3) })
	t1.Stop()
	t4.Reset(10) // re-keyed behind the equal-time event scheduled before it
	drain(e)
	if len(order) != 3 || order[0] != 2 || order[1] != 4 || order[2] != 3 {
		t.Fatalf("order = %v, want [2 4 3]", order)
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
	if len(e.queue) != 2 {
		t.Fatalf("Pending = %d, want 2", len(e.queue))
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
	for i := 0; i < 100; i++ {
		if !e.Step() {
			t.Fatalf("Step %d found the queue empty", i)
		}
	}
	if count != 100 {
		t.Fatalf("100 steps ran the handler %d times", count)
	}
	if len(e.queue) != 1 {
		t.Fatalf("Pending = %d, want the rescheduled event", len(e.queue))
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestRandomScheduleOrderProperty is the queue's differential guard: random
// one-shots, steps and Reset/Stop calls on many timers, against a model that
// keeps every pending event's (at, seq) key in a slice. Each step must run
// the model's earliest event under the key the model gave it.
func TestRandomScheduleOrderProperty(t *testing.T) {
	type pending struct {
		at  Time
		seq uint64
		id  int // a timer's index, or timers + a one-shot's number
	}
	const timers = 8
	f := func(ops []uint16) bool {
		e := New()
		var model []pending
		var seq uint64
		add := func(at Time, id int) {
			model = append(model, pending{at, seq, id})
			seq++
		}
		take := func(id int) bool {
			for i, p := range model {
				if p.id == id {
					model = append(model[:i], model[i+1:]...)
					return true
				}
			}
			return false
		}
		ran, gotAt, gotSeq := -1, Time(-1), uint64(0)
		e.Observer = func(at Time, s uint64) { gotAt, gotSeq = at, s }
		var ts [timers]Timer
		for k := range ts {
			ts[k] = e.Timer(func() { ran = k })
		}
		step := func() bool {
			if len(model) == 0 {
				return !e.Step()
			}
			sort.Slice(model, func(i, j int) bool {
				if model[i].at != model[j].at {
					return model[i].at < model[j].at
				}
				return model[i].seq < model[j].seq
			})
			want := model[0]
			model = model[1:]
			ran = -1
			return e.Step() && ran == want.id && gotAt == want.at && gotSeq == want.seq && e.Now() == want.at
		}
		for n, op := range ops {
			d, k := Time(op>>3%8)*5, int(op>>6)%timers
			switch op % 8 {
			case 0, 1:
				id := timers + n
				e.After(d, func(*Engine) { ran = id })
				add(e.Now()+d, id)
			case 2, 3:
				ts[k].Reset(d - 5) // a negative delay fires now
				take(k)
				add(e.Now()+max(d-5, 0), k)
			case 4:
				if ts[k].Stop() != take(k) {
					return false
				}
			default:
				if !step() {
					return false
				}
			}
		}
		for len(model) > 0 {
			if !step() {
				return false
			}
		}
		return step() && len(e.queue) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
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

// TestEngineTimer pins the engine's re-armable timer: a Reset replaces the
// pending firing, Stop has time.Timer.Stop's meaning, and a negative delay
// fires now.
func TestEngineTimer(t *testing.T) {
	e := New()
	var at []Time
	w := e.Timer(func() { at = append(at, e.Now()) })
	idle := w.Stop()
	w.Reset(10)
	w.Reset(5)
	drain(e)
	fired := w.Stop()
	w.Reset(20)
	armed := w.Stop()
	w.Reset(-1)
	drain(e)
	if idle || fired || !armed || len(at) != 2 || at[0] != 5 || at[1] != 5 {
		t.Fatalf("Stop idle %v, fired %v, armed %v (want false, false, true); fired at %v, want [5 5]", idle, fired, armed, at)
	}
}

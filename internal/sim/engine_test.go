package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 10, 20} {
		at := at
		e.At(at, func(now Time) {
			if now != at {
				t.Errorf("event scheduled at %v fired at %v", at, now)
			}
			got = append(got, now)
		})
	}
	e.Run()
	want := []Time{10, 10, 20, 30, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineEqualTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of schedule order: %v", order)
		}
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine()
	e.After(5, func(now Time) {
		if now != 5 {
			t.Errorf("now = %v, want 5", now)
		}
		e.After(7, func(now Time) {
			if now != 12 {
				t.Errorf("now = %v, want 12", now)
			}
		})
	})
	e.Run()
	if e.Now() != 12 {
		t.Errorf("final clock %v, want 12", e.Now())
	}
	if e.Fired() != 2 {
		t.Errorf("fired %d, want 2", e.Fired())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func(Time) { fired = true })
	if !e.Scheduled(ev) {
		t.Error("event does not report scheduled")
	}
	if !e.Cancel(ev) {
		t.Error("cancel of a pending event reported nothing pending")
	}
	if e.Cancel(ev) { // double cancel is a no-op
		t.Error("double cancel reported a pending event")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Scheduled(ev) {
		t.Error("cancelled event still reports scheduled")
	}
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []Time
	evs := make([]Event, 0, 5)
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		evs = append(evs, e.At(at, func(now Time) { got = append(got, now) }))
	}
	e.Cancel(evs[2]) // remove t=3
	e.Run()
	want := []Time{1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(now Time)
	tick = func(now Time) {
		count++
		e.After(10, tick)
	}
	e.After(10, tick)
	e.RunUntil(95)
	if count != 9 {
		t.Errorf("fired %d ticks by t=95, want 9", count)
	}
	if e.Now() != 95 {
		t.Errorf("clock %v after RunUntil(95), want 95", e.Now())
	}
	// Continue running: the pending tick at t=100 must still fire.
	e.RunUntil(100)
	if count != 10 {
		t.Errorf("fired %d ticks by t=100, want 10", count)
	}
}

func TestEngineRunUntilIdleAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Errorf("idle RunUntil left clock at %v, want 500", e.Now())
	}
}

// TestEngineNextAt: the peek reports the earliest pending due time
// without firing anything — nothing on an empty queue, the next
// survivor once the head is cancelled, and one time for an equal-time
// group, which then fires in schedule order.
func TestEngineNextAt(t *testing.T) {
	e := NewEngine()
	if at, ok := e.NextAt(); ok {
		t.Errorf("empty queue: NextAt = %v, true; want false", at)
	}

	head := e.At(10, func(Time) { t.Error("cancelled head fired") })
	e.At(30, func(Time) {})
	e.Cancel(head)
	if at, ok := e.NextAt(); !ok || at != 30 {
		t.Errorf("after cancelling the head: NextAt = %v, %v; want 30, true", at, ok)
	}

	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.At(20, func(Time) { order = append(order, i) })
	}
	if at, ok := e.NextAt(); !ok || at != 20 {
		t.Errorf("equal-time group: NextAt = %v, %v; want 20, true", at, ok)
	}
	if e.Fired() != 0 || e.Now() != 0 {
		t.Errorf("NextAt fired events or moved the clock: fired %d, now %v", e.Fired(), e.Now())
	}
	e.RunUntil(20)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("equal-time events fired in order %v, want [0 1 2]", order)
	}
	if at, ok := e.NextAt(); !ok || at != 30 {
		t.Errorf("after the group: NextAt = %v, %v; want 30, true", at, ok)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(now Time)
	tick = func(now Time) {
		count++
		if count == 3 {
			e.Stop()
			return
		}
		e.After(1, tick)
	}
	e.After(1, tick)
	e.Run()
	if count != 3 {
		t.Errorf("fired %d events, want 3 (stopped)", count)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(5, func(Time) {})
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5µs"},
		{1500, "1.500ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// Property: for any batch of event times, the engine fires them in
// non-decreasing time order and the clock never goes backwards.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, off := range offsets {
			at := Time(off)
			e.At(at, func(now Time) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: pending count is consistent under schedule/cancel sequences.
func TestEnginePendingProperty(t *testing.T) {
	f := func(n uint8, cancelMask uint16) bool {
		e := NewEngine()
		count := int(n%32) + 1
		evs := make([]Event, count)
		for i := 0; i < count; i++ {
			evs[i] = e.At(Time(i), func(Time) {})
		}
		cancelled := 0
		for i := 0; i < count && i < 16; i++ {
			if cancelMask&(1<<i) != 0 {
				e.Cancel(evs[i])
				cancelled++
			}
		}
		return e.Pending() == count-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
